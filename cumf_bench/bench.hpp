#pragma once

// Shared plumbing of the cumf_bench program: run options, per-interval sample
// vectors, the metric report every workload fills, and the entry points of
// the four workloads.
//
// Every percentile the benchmark reports is computed from a Samples vector that
// holds exactly the interval it describes; nothing reads the serving stack's
// rolling LatencyTracker windows, which outlive a phase.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace cumf::bench {

/// Options for one workload run (one process runs one workload).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time. A traced run splits it into an untraced and a traced
  /// half so the tracing overhead compares like with like.
  double seconds = 15.0;
  /// Directory for the Chrome trace; empty runs untraced.
  std::string trace_dir;
  /// Scratch directory for checkpoints; must exist.
  std::string work_dir;

  [[nodiscard]] bool traced() const { return !trace_dir.empty(); }
};

/// Timing samples of one interval.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Everything one run reports: named metrics with units, the tally of
/// operations behind `attempted` / `failed`, and notes for humans.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing metric: the value plus its sample count in the notes.
  void timing(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void note(const std::string& line);
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Counts `n` failed operations; the first few reasons are printed.
  void fail(const std::string& why, std::uint64_t n = 1);
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && attempted_ > 0;
  }
  /// Notes and metrics for humans, then the result as one JSON line.
  void print(const RunOptions& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over the whole seconds of a phase of each second's quantile `q`
/// (`by_second[i]` holds the samples due in second i): a host stall of a
/// second or two moves one or two windows, not the result. A trailing
/// partial second is skipped.
double windowed_quantile(const std::vector<Samples>& by_second,
                         double seconds, double q);

/// Set-up timings. Set-up is repeated — at least kMinRepeats times and
/// until kMinSeconds have gone into it, at most kMaxRepeats times — and
/// setup_s is the median, so set-up time has samples of its own rather than
/// one reading per run.
class SetupTimes {
 public:
  /// Whether the workload should set up (again).
  [[nodiscard]] bool more() const;
  /// One repeat: data generation (ratings, split, CSR), training of the
  /// model the workload starts from (0 when none), and building everything
  /// else (solver, serving stack, orchestrator).
  void add(double data_s, double seed_train_s, double build_s);
  /// setup_s plus the setup.* layer split.
  void report(Report& rep) const;

 private:
  static constexpr int kMinRepeats = 3;
  static constexpr int kMaxRepeats = 40;
  static constexpr double kMinSeconds = 2.0;

  Samples data_s_;
  Samples seed_train_s_;
  Samples build_s_;
  Samples total_s_;
  double spent_s_ = 0.0;
};

/// Peak resident set of this process (getrusage), in MB.
double peak_rss_mb();

/// Reports each named per-layer metric as 0: the layers a workload does
/// not use (its traced run still prints every per-layer metric).
void report_unused(Report& rep,
                   std::initializer_list<std::pair<const char*, const char*>>
                       names_and_units);

/// Turns on the process-wide TraceCollector with a ring large enough that a
/// whole traced half fits, sampling every query.
void enable_tracing();
/// Stops tracing and writes the Chrome trace to `dir`/trace.json, noting how
/// many events the ring dropped. Reports a failure when the file cannot be
/// written.
void write_trace(const std::string& dir, Report& rep);

/// Relative change of `traced` over `untraced`, in percent.
double overhead_pct(double untraced, double traced);

// Workloads (als.cpp, serve.cpp).
void run_als_netflix(const RunOptions& opt, Report& rep);
void run_als_hugewiki(const RunOptions& opt, Report& rep);
void run_serve_catalog(const RunOptions& opt, Report& rep);
void run_serve_retrain(const RunOptions& opt, Report& rep);

}  // namespace cumf::bench
