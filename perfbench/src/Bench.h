//===- perfbench/src/Bench.h - Repository benchmark plumbing ----*- C++ -*-===//
//
// Shared pieces of the repository benchmark (perfbench): statistics,
// the span tracer, the metric report with its failure accounting, and
// the set-up phase every workload starts with.
//
// The benchmark drives the system only through public calls
// (Scanner::loadWorkload/rewrite/run/saveState/resume, the workload
// targets' execute(), ScanService::run/index) and times each layer from
// outside, by timing the calls into that layer. With --trace 1 a span is
// recorded around every such call; spans stay in memory and are written
// as Chrome trace-event JSON (opens in Perfetto) when the run ends.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/Scanner.h"
#include "support/RNG.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double secondsSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now());
}

// --- Statistics --------------------------------------------------------------

/// Linear-interpolation quantile (Q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
/// Geometric mean of positive values; 0 if any value is not positive.
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);
/// Geometric mean over items (programs, inputs) of each item's \p Q
/// quantile: the per-execution latency metrics exec_ms_p50/p90.
double geomeanOfQuantiles(const std::vector<std::vector<double>> &PerItem,
                          double Q);
/// The throughput a run reports: the upper quartile of its per-run (or
/// per-pass) rates. Other tenants of a shared host only ever slow a run
/// down, so the upper quartile tracks the system rather than its
/// neighbours far more steadily than the median does.
inline double throughput(std::vector<double> Rates) {
  return quantile(std::move(Rates), 0.75);
}

/// "a b c" with \p Digits decimals, for the human-readable report.
std::string formatList(const std::vector<double> &V, int Digits);

/// Deterministic sub-seed I of the benchmark seed (SplitMix64 stream).
uint64_t subSeed(uint64_t Seed, unsigned I);

// --- Tracing -----------------------------------------------------------------

/// The system's layers, named after the src/ modules the timed calls
/// enter. Bench is the benchmark's own code between calls.
enum class Layer : uint8_t { Bench, Lang, Passes, Vm, Runtime, Fuzz, Api,
                             Service, NumLayers };
const char *layerName(Layer L);

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced phase pays only a branch per timed call.
class Tracer {
public:
  Tracer(std::string Workload, uint64_t Seed)
      : Workload(std::move(Workload)), Seed(Seed), Origin(Clock::now()) {}

  void setEnabled(bool B) { On = B; }

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when disabled).
  int open(const char *Name, Layer L);
  void close(int Id);
  /// Records an already-finished child of the innermost open span (epoch
  /// spans observed at barriers after the fact).
  void record(const char *Name, Layer L, Clock::time_point Start,
              Clock::time_point End);

  size_t size() const { return Spans.size(); }
  /// Per-layer self time: each span's duration minus the part of it
  /// that its children cover, summed by layer.
  std::vector<double> selfSeconds() const;
  /// Writes the spans as Chrome trace-event JSON.
  teapot::Error write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    Layer L;
    Clock::time_point Start, End;
    int Parent;
  };
  std::string Workload;
  uint64_t Seed;
  Clock::time_point Origin;
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Times one call into a layer: always measures the wall time, and
/// records a span when the tracer is on.
class Timed {
public:
  Timed(Tracer &T, const char *Name, Layer L)
      : T(T), Id(T.open(Name, L)), Start(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!Stopped) {
      Secs = secondsSince(Start);
      T.close(Id);
      Stopped = true;
    }
    return Secs;
  }
  Clock::time_point start() const { return Start; }

private:
  Tracer &T;
  int Id;
  Clock::time_point Start;
  double Secs = 0;
  bool Stopped = false;
};

// --- Report ------------------------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
};

/// Metrics, failure accounting and the correctness verdict of one run.
/// End-to-end metrics come from the untraced phase; per-layer ones from
/// the traced phase (and only in --trace 1 runs).
class Report {
public:
  /// Records a metric of BENCHMARK.json's end_to_end / per_layer list
  /// (the units live with the list in Bench.cpp).
  void endToEnd(const std::string &Name, double Value) { E2E[Name] = Value; }
  void perLayer(const std::string &Name, double Value) {
    Layers[Name] = Value;
  }

  /// Operations attempted (executions, oracle checks).
  void attempt(uint64_t N) { Attempted += N; }
  /// Failed operations, with the reason printed once per call.
  void fail(uint64_t N, const std::string &Why);
  /// The run's results are not trustworthy (build guard, drift).
  void invalidate(const std::string &Why);

  /// Human-readable line on stdout (never the last line).
  void note(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the human-readable metric table and, as the last stdout
  /// line, the result object (end-to-end metrics, or per-layer ones
  /// when \p Traced). Returns false if a metric is missing, unlisted or
  /// not finite.
  bool print(bool Traced) const;

private:
  std::map<std::string, double> E2E, Layers;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
};

/// Everything a workload needs: options, tracer, report.
struct Context {
  Options Opt;
  Tracer Trace;
  Report Out;

  explicit Context(Options O)
      : Opt(std::move(O)), Trace(Opt.Workload, Opt.Seed) {}
};

/// The closed measurement loop: calls \p RunOnce for at least
/// Opt.Seconds and \p MinRuns calls. With --trace 1, calls alternate
/// between untraced ones (into \p Plain) and traced ones (into
/// \p Traced), so host drift hits both alike and their difference is the
/// tracing overhead.
template <typename Samples, typename Fn>
void measure(Context &C, unsigned MinRuns, Samples &Plain, Samples &Traced,
             Fn RunOnce) {
  auto Start = Clock::now();
  for (unsigned N = 0; N < MinRuns || secondsSince(Start) < C.Opt.Seconds;
       ++N) {
    bool On = C.Opt.Trace && N % 2 == 1;
    C.Trace.setEnabled(On);
    RunOnce(On ? Traced : Plain);
  }
  C.Trace.setEnabled(false);
}

// --- Set-up phase ------------------------------------------------------------

/// One binary a workload scans: a Scanner spec plus its configuration.
struct BinarySpec {
  std::string Spec; // anything Scanner::loadWorkload accepts
  teapot::ScanConfig Config;
};

/// Repeats loadWorkload + rewrite over every binary of the workload and
/// reports the median set-up time (setup_s) and the per-layer set-up
/// metrics. Returns the last repetition's scanners, ready to run. Also
/// checks that the rewrite is deterministic across repetitions.
std::vector<std::unique_ptr<teapot::Scanner>>
setUp(Context &C, const std::vector<BinarySpec> &Binaries, unsigned Reps);

/// Peak resident set size of this process, in MiB.
double peakRssMiB();

/// A fresh instrumented target configured exactly like \p S's campaign
/// targets (runtime options, engine, Table 3 input poke).
std::unique_ptr<teapot::workloads::InstrumentedTarget>
instrumentedTarget(const teapot::Scanner &S);

/// Replays \p Inputs on fresh native and instrumented targets of a
/// scanned binary (the scanner's own runtime options and input poke)
/// and reports the per-execution vm/runtime layer metrics: native and
/// instrumented medians, cold-start cost and simulations per execution.
/// Every execution must halt, and native and instrumented outputs must
/// agree unless the scan injects gadgets (the native binary lacks them).
void execProbe(Context &C, const teapot::Scanner &S,
               const std::vector<std::vector<uint8_t>> &Inputs);

/// Reports the api-layer snapshot metrics for a scanner whose last
/// run() finished: saveState + serialize, and parse + resume + the
/// restoring run(). The restored result must equal the saved one.
void snapshotProbe(Context &C, teapot::Scanner &S,
                   const teapot::ScanResult &Last);

/// Short interpreter-tier replay of \p S's campaign at \p Budget
/// executions; the normalized result must equal the JIT run's. A
/// mismatch is a failed operation.
void interpOracle(Context &C, teapot::Scanner &S, uint64_t Budget);

/// Per-layer self time and trace size from the tracer.
void reportTraceLayers(Context &C);

// --- Workloads ---------------------------------------------------------------

void runCampaignWorkload(Context &C);
void runFig7(Context &C);
void runFleet(Context &C);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
