// nvmbench — runs one benchmark workload for a host-time budget and prints
// one JSON object on stdout.
//
//   nvmbench --workload <stream|rand|ckpt-ec|degraded> --seed <n>
//            --seconds <s> [--min-iterations <n>] [--trace-out <dir>]
//
// Each iteration builds fresh testbeds from the seed and runs set-up,
// warm-up, the measured phase and byte verification.  Iterations repeat
// until the budget is spent (at least --min-iterations).  Virtual-time
// metrics and counters must repeat exactly across iterations; host-time
// metrics are reported per iteration, for run.py to take medians.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nvmbench.hpp"
#include "trace_hooks.hpp"

namespace nvmbench {

Iteration RunStream(uint64_t seed);
Iteration RunRand(uint64_t seed);
Iteration RunCkptEc(uint64_t seed);
Iteration RunDegraded(uint64_t seed);

namespace {

using WorkloadFn = Iteration (*)(uint64_t seed);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "stream") return RunStream;
  if (name == "rand") return RunRand;
  if (name == "ckpt-ec") return RunCkptEc;
  if (name == "degraded") return RunDegraded;
  return nullptr;
}

// A run ends after this much wall time even if --min-iterations is not
// reached, well inside the 180 s a benchmark run may take.
constexpr double kHardStopSeconds = 120;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", ch);
      out += esc;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"name": {"value": v, "unit": "..."}, ...}
std::string JsonMetrics(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    out += (out.size() > 1 ? ", " : "") + JsonString(name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

// {"name": {"values": [...], "unit": "..."}, ...}
std::string JsonSeries(const std::map<std::string, std::vector<double>>& s,
                       const std::map<std::string, std::string>& units) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : s) {
    out += first ? "" : ", ";
    first = false;
    out += JsonString(name) + ": {\"values\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(values[i]);
    }
    out += "], \"unit\": " + JsonString(units.at(name)) + "}";
  }
  return out + "}";
}

// Names of the first metric that differs between two iterations, or "".
std::string FirstDifference(const Iteration& a, const Iteration& b) {
  if (a.latencies_ns != b.latencies_ns) return "op latencies";
  for (const auto& [name, m] : a.exact) {
    auto it = b.exact.find(name);
    if (it == b.exact.end() || it->second.value != m.value) return name;
  }
  if (a.exact.size() != b.exact.size()) return "metric set";
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: nvmbench --workload <stream|rand|ckpt-ec|degraded> "
               "--seed <n> --seconds <s> [--min-iterations <n>] "
               "[--trace-out <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace nvmbench

int main(int argc, char** argv) {
  using namespace nvmbench;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int min_iterations = 3;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--min-iterations") {
      min_iterations = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadFn run = FindWorkload(workload);
  if (run == nullptr || argc % 2 == 0 || min_iterations < 1) return Usage();
  Tracer* tracer = ActiveTracer();

  const double start = WallSeconds();
  std::vector<Iteration> iters;
  std::map<std::string, std::vector<double>> host;
  std::map<std::string, std::string> units;
  std::string determinism_error;
  while (iters.empty() ||
         (WallSeconds() - start < kHardStopSeconds &&
          (static_cast<int>(iters.size()) < min_iterations ||
           WallSeconds() - start < seconds))) {
    iters.push_back(run(seed));
    const Iteration& it = iters.back();
    std::fprintf(stderr, "nvmbench %s seed %" PRIu64
                 " iteration %zu: setup %.3f s, measured %.3f s\n",
                 workload.c_str(), seed, iters.size(), it.setup_s,
                 it.measured_s);
    host["setup_s"].push_back(it.setup_s);
    units["setup_s"] = "s";
    host["host_us_per_op"].push_back(
        it.measured_s * 1e6 / static_cast<double>(std::max<uint64_t>(
                                  1, it.measured_ops)));
    units["host_us_per_op"] = "us";
    if (tracer != nullptr) {
      for (const auto& [name, m] : tracer->TakeIteration()) {
        host[name].push_back(m.value);
        units[name] = m.unit;
      }
    }
    if (determinism_error.empty() && iters.size() > 1) {
      const std::string diff = FirstDifference(iters.front(), it);
      if (!diff.empty()) {
        determinism_error =
            "virtual results differ between iterations of one seed: " + diff;
      }
    }
  }

  Metrics substrate;
  if (tracer != nullptr && !trace_out.empty()) {
    substrate = tracer->Finish(workload, trace_out);
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const Iteration& it : iters) {
    attempted += it.attempted;
    failed += it.failed;
    for (const auto& e : it.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
  if (!determinism_error.empty()) errors.push_back(determinism_error);
  const bool correct = failed == 0 && determinism_error.empty();

  std::string out = "{\"workload\": " + JsonString(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"iterations\": " + std::to_string(iters.size());
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  out += "], \"peak_rss_mb\": " +
         JsonNumber(static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6);
  out += ", \"exact\": " + JsonMetrics(iters.front().exact);
  out += ", \"host\": " + JsonSeries(host, units);
  out += ", \"substrate\": " + JsonMetrics(substrate) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
