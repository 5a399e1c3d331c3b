//===- perfbench/src/Bench.cpp - Repository benchmark plumbing ------------===//

#include "Bench.h"

#include "support/Json.h"
#include "workloads/Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>

using namespace teapot;

namespace perfbench {

static support::ExitOnError Exit("perfbench: ");

// --- Statistics --------------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

double geomeanOfQuantiles(const std::vector<std::vector<double>> &PerItem,
                          double Q) {
  std::vector<double> Qs;
  for (const std::vector<double> &S : PerItem)
    Qs.push_back(quantile(S, Q));
  return geomean(Qs);
}

std::string formatList(const std::vector<double> &V, int Digits) {
  std::string S;
  char Buf[32];
  for (double X : V) {
    snprintf(Buf, sizeof(Buf), "%s%.*f", S.empty() ? "" : " ", Digits, X);
    S += Buf;
  }
  return S;
}

uint64_t subSeed(uint64_t Seed, unsigned I) {
  RNG R(Seed);
  uint64_t S = 0;
  for (unsigned K = 0; K <= I; ++K)
    S = R.next();
  return S;
}

// --- Tracing -----------------------------------------------------------------

const char *layerName(Layer L) {
  static const char *Names[] = {"bench", "lang",  "passes", "vm",
                                "runtime", "fuzz", "api",   "service"};
  return Names[static_cast<size_t>(L)];
}

int Tracer::open(const char *Name, Layer L) {
  if (!On)
    return -1;
  int Id = static_cast<int>(Spans.size());
  Clock::time_point Now = Clock::now();
  Spans.push_back({Name, L, Now, Now, Stack.empty() ? -1 : Stack.back()});
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int Id) {
  if (Id < 0)
    return;
  Spans[Id].End = Clock::now();
  // Spans nest: the closed span is the innermost open one.
  while (!Stack.empty()) {
    int Top = Stack.back();
    Stack.pop_back();
    if (Top == Id)
      break;
  }
}

void Tracer::record(const char *Name, Layer L, Clock::time_point Start,
                    Clock::time_point End) {
  if (!On)
    return;
  Spans.push_back({Name, L, Start, End, Stack.empty() ? -1 : Stack.back()});
}

std::vector<double> Tracer::selfSeconds() const {
  std::vector<double> ChildSecs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSecs[S.Parent] += secondsBetween(S.Start, S.End);
  std::vector<double> Self(static_cast<size_t>(Layer::NumLayers), 0);
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[static_cast<size_t>(Spans[I].L)] +=
        secondsBetween(Spans[I].Start, Spans[I].End) - ChildSecs[I];
  return Self;
}

Error Tracer::write(const std::string &Path) const {
  json::Value Events = json::Value::array();
  json::Value Meta = json::Value::object();
  Meta.set("name", "process_name");
  Meta.set("ph", "M");
  Meta.set("pid", 1);
  json::Value MetaArgs = json::Value::object();
  MetaArgs.set("name", "perfbench " + Workload);
  Meta.set("args", std::move(MetaArgs));
  Events.push(std::move(Meta));
  auto Micros = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    json::Value E = json::Value::object();
    E.set("name", S.Name);
    E.set("cat", layerName(S.L));
    E.set("ph", "X");
    E.set("ts", Micros(S.Start));
    E.set("dur", Micros(S.End) - Micros(S.Start));
    E.set("pid", 1);
    E.set("tid", 1);
    json::Value Args = json::Value::object();
    Args.set("id", static_cast<unsigned long long>(I));
    Args.set("parent", static_cast<long long>(S.Parent));
    Args.set("workload", Workload);
    Args.set("seed", Seed);
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  json::Value Doc = json::Value::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");

  std::error_code EC;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), EC);
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return makeError("cannot write trace file '%s'", Path.c_str());
  std::string Text = Doc.dump() + "\n";
  bool Ok = fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = fclose(F) == 0 && Ok;
  if (!Ok)
    return makeError("short write to trace file '%s'", Path.c_str());
  return Error::success();
}

// --- Report ------------------------------------------------------------------

struct MetricDef {
  std::string Name;
  const char *Unit;
};

static const std::vector<MetricDef> &endToEndDefs() {
  static const std::vector<MetricDef> Defs = {
      {"execs_per_s", "1/s"},    {"setup_s", "s"},
      {"exec_ms_p50", "ms"},     {"exec_ms_p90", "ms"},
      {"gadgets_found", "count"}, {"recall_injected", "ratio"},
      {"edges_covered", "count"}, {"peak_rss_mb", "MiB"},
      {"ok_ratio", "ratio"}};
  return Defs;
}

/// Per-pass rewrite time metrics, one per pass of the two pipelines the
/// workloads run (Teapot and the SpecFuzz baseline).
static const char *const PassNames[] = {
    "clone-shadow-functions", "create-trampolines", "place-markers",
    "instrument-real-copy",   "instrument-shadow-copy",
    "instrument-baseline",    "layout-and-meta"};

static const std::vector<MetricDef> &perLayerDefs() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"host.nproc", "count"},
        {"host.jit_backend", "bool"},
        {"lang.compile_s", "s"},
        {"passes.rewrite_s", "s"}};
    for (const char *P : PassNames)
      D.push_back({std::string("passes.") + P + ".s", "s"});
    const std::vector<MetricDef> Rest = {
        {"passes.insts_added", "count"},
        {"passes.branch_sites", "count"},
        {"passes.marker_sites", "count"},
        {"vm.native_exec_ms", "ms"},
        {"vm.guest_minsts_per_s", "Minst/s"},
        {"vm.guest_insts_per_exec", "count"},
        {"vm.cold_exec_ms", "ms"},
        {"vm.tlb_guest_hits_per_exec", "count"},
        {"vm.slow_path_calls_per_exec", "count"},
        {"runtime.added_ms", "ms"},
        {"runtime.slowdown_x", "x"},
        {"runtime.vs_specfuzz_x", "x"},
        {"baselines.specfuzz_exec_ms", "ms"},
        {"runtime.tlb_runtime_hits_per_exec", "count"},
        {"runtime.intrinsic_fast_path_hits_per_exec", "count"},
        {"runtime.simulations_per_exec", "count"},
        {"fuzz.epoch_s_p50", "s"},
        {"fuzz.epoch_s_max", "s"},
        {"fuzz.worker_skew", "x"},
        {"fuzz.corpus_adds_per_kexec", "count"},
        {"fuzz.imports", "count"},
        {"fuzz.epochs", "count"},
        {"api.save_state_s", "s"},
        {"api.resume_s", "s"},
        {"api.snapshot_bytes", "bytes"},
        {"service.round_s_p50", "s"},
        {"service.round_s_max", "s"},
        {"service.rounds", "count"},
        {"service.federated_imports", "count"},
        {"service.index_s", "s"},
        {"service.overhead_share", "ratio"},
        {"bench.exec_samples", "count"},
        {"trace.overhead_share", "ratio"},
        {"trace.spans", "count"}};
    D.insert(D.end(), Rest.begin(), Rest.end());
    for (size_t L = 0; L != static_cast<size_t>(Layer::NumLayers); ++L)
      D.push_back(
          {std::string(layerName(static_cast<Layer>(L))) + ".self_s", "s"});
    return D;
  }();
  return Defs;
}

void Report::fail(uint64_t N, const std::string &Why) {
  Failed += N;
  note("FAILED (%llu): %s", static_cast<unsigned long long>(N), Why.c_str());
}

void Report::invalidate(const std::string &Why) {
  Correct = false;
  note("INVALID: %s", Why.c_str());
}

void Report::note(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  vprintf(Fmt, Args);
  va_end(Args);
  printf("\n");
  fflush(stdout);
}

bool Report::print(bool Traced) const {
  for (const auto &[Map, Defs] :
       {std::pair{&E2E, &endToEndDefs()}, std::pair{&Layers, &perLayerDefs()}})
    for (const auto &Entry : *Map)
      if (std::none_of(Defs->begin(), Defs->end(), [&](const MetricDef &D) {
            return D.Name == Entry.first;
          })) {
        fprintf(stderr, "perfbench: metric '%s' is not listed\n",
                Entry.first.c_str());
        return false;
      }

  printf("%-44s %16s  %s\n", "metric", "value", "unit");
  for (const auto &[Map, Defs] :
       {std::pair{&E2E, &endToEndDefs()}, std::pair{&Layers, &perLayerDefs()}})
    for (const MetricDef &D : *Defs)
      if (auto It = Map->find(D.Name); It != Map->end())
        printf("%-44s %16.6g  %s\n", D.Name.c_str(), It->second, D.Unit);

  const std::vector<MetricDef> &Defs = Traced ? perLayerDefs() : endToEndDefs();
  const auto &Map = Traced ? Layers : E2E;
  std::string Metrics;
  for (const MetricDef &D : Defs) {
    auto It = Map.find(D.Name);
    // A layer the workload never enters reports 0; every end-to-end
    // metric must have been measured.
    double V = 0;
    if (It != Map.end())
      V = It->second;
    else if (!Traced) {
      fprintf(stderr, "perfbench: end-to-end metric '%s' was not measured\n",
              D.Name.c_str());
      return false;
    }
    if (!std::isfinite(V)) {
      fprintf(stderr, "perfbench: metric '%s' is not finite\n",
              D.Name.c_str());
      return false;
    }
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.17g", V);
    Metrics += (Metrics.empty() ? "" : ", ") + json::quote(D.Name) +
               ": {\"value\": " + Buf + ", \"unit\": " + json::quote(D.Unit) +
               "}";
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         Correct && Failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(std::max<uint64_t>(Attempted, 1)),
         static_cast<unsigned long long>(Failed), Metrics.c_str());
  fflush(stdout);
  return true;
}

// --- Set-up phase ------------------------------------------------------------

std::vector<std::unique_ptr<Scanner>>
setUp(Context &C, const std::vector<BinarySpec> &Binaries, unsigned Reps) {
  std::vector<double> Total, Compile, Rewrite;
  std::map<std::string, std::vector<double>> PassSecs;
  uint64_t InstsAdded = 0, BranchSites = 0, MarkerSites = 0;
  std::vector<std::unique_ptr<Scanner>> Scanners;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    Scanners.clear();
    Timed Op(C.Trace, "setup", Layer::Bench);
    double CompileS = 0, RewriteS = 0;
    std::map<std::string, double> RepPass;
    uint64_t RepInsts = 0, RepBranch = 0, RepMarker = 0;
    for (const BinarySpec &B : Binaries) {
      auto S = std::make_unique<Scanner>(B.Config);
      {
        Timed T(C.Trace, "Scanner::loadWorkload", Layer::Lang);
        Exit(S->loadWorkload(B.Spec));
        CompileS += T.stop();
      }
      {
        Timed T(C.Trace, "Scanner::rewrite", Layer::Passes);
        Exit(S->rewrite());
        RewriteS += T.stop();
      }
      if (const core::RewriteResult *RW = S->rewriteResult()) {
        for (const passes::PassStat &P : RW->Stats.Passes) {
          RepPass[P.Name] += P.Seconds;
          RepInsts += P.InstsAdded;
        }
        RepBranch += RW->Meta.Trampolines.size();
        RepMarker += RW->Meta.MarkerSites.size();
      }
      Scanners.push_back(std::move(S));
    }
    Op.stop();
    C.Out.attempt(Binaries.size());
    if (Rep == 0) {
      InstsAdded = RepInsts;
      BranchSites = RepBranch;
      MarkerSites = RepMarker;
    } else if (RepInsts != InstsAdded || RepBranch != BranchSites ||
               RepMarker != MarkerSites) {
      C.Out.fail(1, "rewrite drift: set-up repetition " +
                        std::to_string(Rep) + " instrumented differently");
      C.Out.invalidate("non-deterministic rewrite");
    }
    // The first repetition warms caches and the allocator; it is checked
    // but not timed.
    if (Rep == 0)
      continue;
    Total.push_back(CompileS + RewriteS);
    Compile.push_back(CompileS);
    Rewrite.push_back(RewriteS);
    for (const char *P : PassNames)
      PassSecs[P].push_back(RepPass.count(P) ? RepPass[P] : 0.0);
  }
  C.Out.endToEnd("setup_s", median(Total));
  C.Out.perLayer("lang.compile_s", median(Compile));
  C.Out.perLayer("passes.rewrite_s", median(Rewrite));
  for (const char *P : PassNames)
    C.Out.perLayer(std::string("passes.") + P + ".s", median(PassSecs[P]));
  C.Out.perLayer("passes.insts_added", static_cast<double>(InstsAdded));
  C.Out.perLayer("passes.branch_sites", static_cast<double>(BranchSites));
  C.Out.perLayer("passes.marker_sites", static_cast<double>(MarkerSites));
  C.Out.note("setup: %zu binaries x %zu timed repetitions, median %.3f ms "
             "(compile %.3f ms, rewrite %.3f ms), %llu instructions added",
             Binaries.size(), Total.size(), median(Total) * 1e3,
             median(Compile) * 1e3, median(Rewrite) * 1e3,
             static_cast<unsigned long long>(InstsAdded));
  return Scanners;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- Probes ------------------------------------------------------------------

std::unique_ptr<workloads::InstrumentedTarget>
instrumentedTarget(const Scanner &S) {
  const ScanConfig &Cfg = S.config();
  const workloads::InjectionResult *Inj = S.injection();
  // The scanner's own target configuration (Scanner::makeTarget): the
  // Table 3 path tags only the injected slot and pokes it every run.
  runtime::RuntimeOptions RTO = Cfg.Runtime;
  if (Inj) {
    RTO.TaintInput = false;
    RTO.MassagePolicy = false;
    RTO.ExtraTaintAddr = Inj->InjInputAddr;
    RTO.ExtraTaintLen = 8;
  }
  auto T = std::make_unique<workloads::InstrumentedTarget>(
      *S.rewriteResult(), RTO, Cfg.RunBudget);
  T->M.Eng = Cfg.Engine;
  if (Inj)
    T->pokeInputTo(Inj->InjInputAddr);
  return T;
}

void execProbe(Context &C, const Scanner &S,
               const std::vector<std::vector<uint8_t>> &Inputs) {
  const workloads::InjectionResult *Inj = S.injection();
  workloads::NativeTarget N(*S.binary(), S.config().RunBudget);
  N.M.Eng = S.config().Engine;
  std::unique_ptr<workloads::InstrumentedTarget> TPtr = instrumentedTarget(S);
  workloads::InstrumentedTarget &T = *TPtr;

  double ColdS;
  {
    Timed Cold(C.Trace, "InstrumentedTarget::execute(cold)", Layer::Runtime);
    T.execute(Inputs.front());
    ColdS = Cold.stop();
  }
  std::vector<double> NativeMs, InstrMs;
  uint64_t Mismatches = 0, NonHalting = 0;
  for (const std::vector<uint8_t> &In : Inputs) {
    {
      Timed X(C.Trace, "NativeTarget::execute", Layer::Vm);
      N.execute(In);
      NativeMs.push_back(X.stop() * 1e3);
    }
    {
      Timed X(C.Trace, "InstrumentedTarget::execute", Layer::Runtime);
      T.execute(In);
      InstrMs.push_back(X.stop() * 1e3);
    }
    // Speculation Shadows must be transparent: same output, same stop.
    // (An injected scan's rewrite carries gadgets the native binary
    // lacks, so only its instrumented side is checked.)
    if (!Inj && (T.M.output() != N.M.output() ||
                 T.LastStop.Kind != N.LastStop.Kind ||
                 T.LastStop.ExitStatus != N.LastStop.ExitStatus))
      ++Mismatches;
    NonHalting += (N.LastStop.Kind != vm::StopKind::Halted) +
                  (T.LastStop.Kind != vm::StopKind::Halted);
  }
  C.Out.attempt(2 * Inputs.size() + 1);
  if (Mismatches)
    C.Out.fail(Mismatches, "instrumented output differs from native on " +
                               std::to_string(Mismatches) + " corpus inputs");
  if (NonHalting)
    C.Out.fail(NonHalting, "corpus replay executions did not halt");

  double NMed = median(NativeMs), TMed = median(InstrMs);
  C.Out.perLayer("vm.native_exec_ms", NMed);
  C.Out.perLayer("vm.cold_exec_ms", ColdS * 1e3 - TMed);
  C.Out.perLayer("runtime.added_ms", TMed - NMed);
  C.Out.perLayer("runtime.slowdown_x", NMed > 0 ? TMed / NMed : 0);
  C.Out.perLayer("runtime.simulations_per_exec",
                 static_cast<double>(T.RT.Stats.Simulations) /
                     static_cast<double>(Inputs.size() + 1));
  C.Out.note("exec probe: %zu corpus inputs, native median %.3f ms, "
             "instrumented median %.3f ms, cold first execution %.3f ms",
             Inputs.size(), NMed, TMed, ColdS * 1e3);
}

void snapshotProbe(Context &C, Scanner &S, const ScanResult &Last) {
  std::string Text;
  double SaveS;
  {
    Timed T(C.Trace, "Scanner::saveState", Layer::Api);
    Text = Exit(S.saveState()).dump();
    SaveS = T.stop();
  }
  ScanResult Restored;
  double ResumeS;
  {
    Timed T(C.Trace, "Scanner::resume", Layer::Api);
    Exit(S.resume(Exit(json::parse(Text))));
    {
      // Restoring happens inside the next run(); a finished campaign
      // resumes to itself without executing anything.
      Timed R(C.Trace, "Scanner::run", Layer::Fuzz);
      Restored = Exit(S.run());
    }
    ResumeS = T.stop();
  }
  ScanResult A = Last, B = Restored;
  A.normalizeRunVarying();
  B.normalizeRunVarying();
  C.Out.attempt(1);
  if (!(A == B))
    C.Out.fail(1, "snapshot round trip: resumed campaign differs");
  C.Out.perLayer("api.save_state_s", SaveS);
  C.Out.perLayer("api.resume_s", ResumeS);
  C.Out.perLayer("api.snapshot_bytes", static_cast<double>(Text.size()));
}

void interpOracle(Context &C, Scanner &S, uint64_t Budget) {
  ScanConfig Saved = S.config();
  auto SavedOnEpoch = std::move(S.OnEpoch);
  S.OnEpoch = nullptr;
  S.config().Campaign.TotalIterations = Budget;
  ScanResult Runs[2];
  const vm::Machine::Engine Engines[2] = {vm::Machine::Engine::Jit,
                                          vm::Machine::Engine::Interpreter};
  for (int I = 0; I != 2; ++I) {
    S.config().Engine = Engines[I];
    Timed T(C.Trace, "Scanner::run(oracle)", Layer::Fuzz);
    Runs[I] = Exit(S.run());
    C.Out.attempt(Runs[I].Executions);
    if (uint64_t Bad = Runs[I].Quarantined + Runs[I].WatchdogTrips)
      C.Out.fail(Bad, "oracle campaign quarantined or watchdog-cut runs");
  }
  S.config() = Saved;
  S.OnEpoch = std::move(SavedOnEpoch);
  Runs[0].normalizeRunVarying();
  Runs[1].normalizeRunVarying();
  C.Out.attempt(1);
  if (!(Runs[0] == Runs[1]))
    C.Out.fail(1, "interpreter replay differs from the jit campaign");
  else
    C.Out.note("oracle: interpreter replay of %llu executions matches the "
               "jit campaign",
               static_cast<unsigned long long>(Runs[0].Executions));
}

void reportTraceLayers(Context &C) {
  std::vector<double> Self = C.Trace.selfSeconds();
  for (size_t L = 0; L != Self.size(); ++L)
    C.Out.perLayer(std::string(layerName(static_cast<Layer>(L))) + ".self_s",
                   Self[L]);
  C.Out.perLayer("trace.spans", static_cast<double>(C.Trace.size()));
}

} // namespace perfbench
