#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cumf::obs {

namespace {

/// Prometheus label-value escaping: backslash, quote, newline.
void append_label_value(std::string* out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

void append_labels(std::string* out, const Labels& labels,
                   const std::string& extra_key = {},
                   const std::string& extra_val = {}) {
  if (labels.empty() && extra_key.empty()) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    append_label_value(out, v);
    *out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) *out += ',';
    *out += extra_key;
    *out += "=\"";
    append_label_value(out, extra_val);
    *out += '"';
  }
  *out += '}';
}

/// Numbers render compactly: integers without a fraction, everything else
/// in the shortest form that round-trips, so metric_value() reads back the
/// exact double that was exposed.
void append_number(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
    return;
  }
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::merge_bins(const std::uint64_t* bin_counts, std::size_t n,
                           double sum, std::uint64_t count) {
  const std::size_t m = std::min(n, bounds_.size() + 1);
  for (std::size_t i = 0; i < m; ++i) {
    buckets_[i].fetch_add(bin_counts[i], std::memory_order_relaxed);
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + sum,
                                     std::memory_order_relaxed)) {
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, Kind kind,
    const Labels& labels, const std::vector<double>* bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = help;
    if (bounds != nullptr) fam.bounds = *bounds;
  } else if (fam.kind != kind) {
    throw std::logic_error("MetricsRegistry: metric '" + name +
                           "' already registered with a different type");
  }
  for (auto& s : fam.series) {
    if (s->labels == labels) return *s;
  }
  auto series = std::make_unique<Series>();
  series->labels = labels;
  switch (kind) {
    case Kind::kCounter:
      series->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      series->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      series->histogram = std::make_unique<Histogram>(fam.bounds);
      break;
  }
  fam.series.push_back(std::move(series));
  return *fam.series.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return *find_or_create(name, help, Kind::kCounter, labels, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  return *find_or_create(name, help, Kind::kGauge, labels, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const std::vector<double>& bounds,
                                      const Labels& labels) {
  return *find_or_create(name, help, Kind::kHistogram, labels, &bounds)
              .histogram;
}

std::string MetricsRegistry::expose() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += fam.help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    switch (fam.kind) {
      case Kind::kCounter:
        out += "counter";
        break;
      case Kind::kGauge:
        out += "gauge";
        break;
      case Kind::kHistogram:
        out += "histogram";
        break;
    }
    out += '\n';

    for (const auto& s : fam.series) {
      if (fam.kind == Kind::kCounter || fam.kind == Kind::kGauge) {
        out += name;
        append_labels(&out, s->labels);
        out += ' ';
        append_number(&out, fam.kind == Kind::kCounter ? s->counter->value()
                                                       : s->gauge->value());
        out += '\n';
        continue;
      }

      const Histogram& h = *s->histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.bucket(i);
        out += name;
        out += "_bucket";
        std::string le;
        {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%g", h.bounds()[i]);
          le = buf;
        }
        append_labels(&out, s->labels, "le", le);
        out += ' ';
        append_number(&out, static_cast<double>(cumulative));
        out += '\n';
      }
      out += name;
      out += "_bucket";
      append_labels(&out, s->labels, "le", "+Inf");
      out += ' ';
      append_number(&out, static_cast<double>(h.count()));
      out += '\n';
      out += name;
      out += "_sum";
      append_labels(&out, s->labels);
      out += ' ';
      append_number(&out, h.sum());
      out += '\n';
      out += name;
      out += "_count";
      append_labels(&out, s->labels);
      out += ' ';
      append_number(&out, static_cast<double>(h.count()));
      out += '\n';
    }
  }
  return out;
}

std::optional<double> metric_value(std::string_view text,
                                   std::string_view series) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= series.size() + 1 ||
        line.substr(0, series.size()) != series || line[series.size()] != ' ') {
      continue;
    }
    // strtod needs a terminator; the value is short, so copy it out.
    const std::string value(line.substr(series.size() + 1));
    char* stop = nullptr;
    const double v = std::strtod(value.c_str(), &stop);
    if (stop == value.c_str()) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

}  // namespace cumf::obs
