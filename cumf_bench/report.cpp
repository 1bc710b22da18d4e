#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace cumf::bench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::timing(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metric(name, value, unit);
  note(name + ": " + std::to_string(samples) + " samples");
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (failures_.size() < 8) failures_.push_back(why);
}

namespace {

/// Metric names and units are fixed identifiers; notes and failure reasons
/// are escaped for the JSON line.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::print(const RunOptions& opt) const {
  std::printf("cumf_bench %s seed=%llu seconds=%g%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.traced() ? " traced" : "");
  for (const auto& n : notes_) std::printf("  %s\n", n.c_str());
  for (const auto& m : metrics_) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& f : failures_) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::string json = "{\"workload\": " + json_string(opt.workload) +
                     ", \"correct\": " + (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    json += (i ? ", " : "") + json_string(failures_[i]);
  }
  json += "], \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    json += (i ? ", " : "") + json_string(metrics_[i].name) +
            ": {\"value\": " + buf +
            ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double windowed_quantile(const std::vector<Samples>& by_second,
                         double seconds, double q) {
  const auto whole = static_cast<std::size_t>(seconds);
  Samples per_second;
  for (std::size_t i = 0; i < by_second.size() && i < whole; ++i) {
    if (!by_second[i].empty()) per_second.add(by_second[i].quantile(q));
  }
  return per_second.median();
}

bool SetupTimes::more() const {
  const auto done = static_cast<int>(total_s_.size());
  return done < kMinRepeats || (done < kMaxRepeats && spent_s_ < kMinSeconds);
}

void SetupTimes::add(double data_s, double seed_train_s, double build_s) {
  data_s_.add(data_s);
  seed_train_s_.add(seed_train_s);
  build_s_.add(build_s);
  total_s_.add(data_s + seed_train_s + build_s);
  spent_s_ += data_s + seed_train_s + build_s;
}

void SetupTimes::report(Report& rep) const {
  rep.timing("setup_s", total_s_.median(), "s", total_s_.size());
  rep.metric("setup.data_s", data_s_.median(), "s");
  rep.metric("setup.seed_train_s", seed_train_s_.median(), "s");
  rep.metric("setup.build_s", build_s_.median(), "s");
}

void report_unused(Report& rep,
                   std::initializer_list<std::pair<const char*, const char*>>
                       names_and_units) {
  for (const auto& [name, unit] : names_and_units) rep.metric(name, 0.0, unit);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void enable_tracing() {
  obs::TraceCollector::Options topt;
  topt.capacity = std::size_t{1} << 20;
  topt.sample_every = 1;
  obs::TraceCollector::global().enable(topt);
}

void write_trace(const std::string& dir, Report& rep) {
  auto& trace = obs::TraceCollector::global();
  trace.disable();
  const std::string path = dir + "/trace.json";
  if (!trace.write_chrome_json(path)) {
    rep.fail("could not write " + path);
    return;
  }
  rep.note("trace: " + std::to_string(trace.events_recorded()) +
           " events, " + std::to_string(trace.events_dropped()) +
           " dropped -> " + path);
}

double overhead_pct(double untraced, double traced) {
  return untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

}  // namespace cumf::bench
