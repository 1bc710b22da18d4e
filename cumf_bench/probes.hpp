#pragma once

// Layer probes of the traced run.
//
// A traced run first repeats the workload with tracing on, then times calls
// into the public functions of each layer the workload uses, on the
// workload's own data:
//
//  - core (als-*): one update-X and one update-Θ replayed through
//    core::get_hermitian_block / core::batch_solve_block over the matrix the
//    workload trains on, test-RMSE evaluation, and — where the workload's
//    training reduces across devices — one core::reduce_across_devices call
//    on p=4 partial buffers shaped n×f²;
//  - serving (serve-*): serve::TopKEngine::recommend_batch, in-process
//    serve::RequestBatcher::submit and serve::net::Client over the same
//    user stream at the workload's read rate, so engine, batcher and network
//    each get a self time that telescopes to the wire latency.
//
// The per-layer metrics of layers a workload does not use are reported as
// 0 (report_no_*), so every traced run prints every per-layer metric.

#include <cstdint>

#include "bench.hpp"
#include "core/solver.hpp"
#include "loadgen.hpp"
#include "serve/live_store.hpp"
#include "serve/net/server.hpp"

namespace cumf::bench {

/// A whole serving stack over one model: live store → engine → batcher →
/// TCP server. Members are declared in dependency order, so the server
/// stops first on destruction. `exclude` (training ratings, may be null)
/// must outlive the stack.
struct ServingStack {
  ServingStack(const linalg::FactorMatrix& x, const linalg::FactorMatrix& theta,
               const sparse::CsrMatrix* exclude, serve::BatcherOptions bopt,
               serve::net::ServerOptions sopt);

  serve::LiveFactorStore live;
  serve::TopKEngine engine;
  serve::RequestBatcher batcher;
  serve::net::TcpServer server;
};

/// The model a workload trains and the data it trained on.
struct TrainedModel {
  const sparse::CsrMatrix& R;
  const sparse::CsrMatrix& Rt;
  const sparse::CooMatrix& test;
  const linalg::FactorMatrix& x;
  const linalg::FactorMatrix& theta;
  core::AlsOptions als;
};

/// What the workload's own training observed, for the modeled-time shares.
struct TrainingProfile {
  core::PhaseProfile profile;     // cumulative over `iterations`
  double modeled_s = 0.0;         // device clock after `iterations`
  double transfer_bytes = 0.0;    // h2d + d2h + d2d over all devices
  int iterations = 0;
  Samples iteration_s;            // wall per iteration
  bool reduces = false;           // a data-parallel side reduces across p=4
};

/// Host↔device and device↔device bytes over every device's counters.
double transfer_bytes(const std::vector<gpusim::Device*>& devices);

/// Reports every core.*, gpusim.* and eval.* per-layer metric. `training`
/// is the workload's own training, timed just before the probe so both
/// see the host at the same speed.
void probe_core(const TrainedModel& model, const TrainingProfile& training,
                Report& rep);

/// Reports the serve.engine/batcher/cache/net per-layer metrics. `rate` and
/// `read_conns` are the workload's read rate and read connections,
/// `traffic` its user stream.
void probe_serving(ServingStack& stack, double rate, int read_conns,
                   const Traffic& traffic, util::Rng& rng, Report& rep);

/// The per-layer metrics of layers a workload does not use, as 0.
void report_no_core(Report& rep);
/// Every serve.*, gen.* and tail.* metric the program reports.
void report_no_serving(Report& rep);
void report_no_orchestrator(Report& rep);

}  // namespace cumf::bench
