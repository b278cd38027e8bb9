#include "benchmark/src/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vfm::bench {

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
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

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Report::EndToEnd(const std::string& name, double value, const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Exact(const std::string& name, double value) {
  exact_.push_back({name, value, ""});
}

void Report::Samples(const std::string& name, uint64_t count) {
  samples_.emplace_back(name, count);
}

void Report::Fail(const std::string& reason) {
  ++failed_;
  if (std::find(failures_.begin(), failures_.end(), reason) == failures_.end()) {
    failures_.push_back(reason);
  }
}

std::string Report::ToJson(const std::string& workload, uint64_t seed, bool traced,
                           bool smoke, double seconds, const std::string& trace_file) const {
  const auto metrics = [](const std::vector<Metric>& list) {
    std::string out = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      out += (i ? ", " : "") + Quoted(list[i].name) + ": {\"value\": " +
             Number(list[i].value) + ", \"unit\": " + Quoted(list[i].unit) + "}";
    }
    return out + "}";
  };
  std::string out = "{\"workload\": " + Quoted(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"smoke\": " + (smoke ? "true" : "false") +
                    ", \"seconds\": " + Number(seconds) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + Quoted(failures_[i]);
  }
  out += "], \"end_to_end\": " + metrics(end_to_end_) + ", \"per_layer\": " + metrics(layers_) +
         ", \"exact\": {";
  for (size_t i = 0; i < exact_.size(); ++i) {
    out += (i ? ", " : "") + Quoted(exact_[i].name) + ": " + Number(exact_[i].value);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(signature_));
  out += "}, \"signature\": " + Quoted(digest) + ", \"samples\": {";
  for (size_t i = 0; i < samples_.size(); ++i) {
    out += (i ? ", " : "") + Quoted(samples_[i].first) + ": " +
           std::to_string(samples_[i].second);
  }
  out += "}, \"trace_file\": " + Quoted(trace_file) + "}";
  return out;
}

}  // namespace vfm::bench
