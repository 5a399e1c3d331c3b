//===- perfbench/src/Fig7.cpp - Figure 7 as a latency workload ------------===//
//
// fig7-large: the nine registry programs on their deterministic
// LargeInput, executed back to back as native, SpecFuzz-rewritten and
// Teapot-rewritten targets with nesting and skipping heuristics off (as
// in Section 7.1), so every branch is simulated. The fuzz, api and
// service layers are bypassed.
//
// Closed loop of passes: each pass executes every program once per
// target, in an order shuffled from the benchmark seed (the inputs
// themselves are Figure 7's fixed ones). SpecFuzz runs every
// SpecFuzzEvery-th pass only: it feeds a runtime-layer ratio, not an
// end-to-end metric.
//
// Oracle: on every execution the Teapot target's guest output and stop
// state must equal the native target's (Speculation Shadows are
// transparent), every run must halt, and each program's Teapot guest
// instruction count must repeat exactly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/SpecFuzz.h"
#include "workloads/Programs.h"

#include <algorithm>

using namespace teapot;
using namespace teapot::workloads;

namespace perfbench {

static support::ExitOnError Exit("perfbench: ");

namespace {

constexpr size_t InputBytes = 400;
constexpr uint64_t RunBudget = 600'000'000;
/// Passes the untraced phase runs at least: 100 samples per program put
/// ten beyond each program's p90.
constexpr unsigned MinPasses = 100;
constexpr unsigned SpecFuzzEvery = 4;
constexpr unsigned SetupReps = 15;

runtime::RuntimeOptions perfRunTeapot() {
  runtime::RuntimeOptions O;
  O.Nesting = runtime::NestingPolicy::Off;
  return O;
}

runtime::RuntimeOptions perfRunSpecFuzz() {
  runtime::RuntimeOptions O = baselines::specFuzzRuntimeOptions();
  O.Nesting = runtime::NestingPolicy::Off;
  return O;
}

struct Program {
  std::string Name;
  std::vector<uint8_t> Input;
  std::unique_ptr<NativeTarget> Native;
  std::unique_ptr<InstrumentedTarget> Teapot, SpecFuzz;
  double ColdMs = 0;
  uint64_t TeapotInsts = 0; // per execution, must repeat exactly
  uint64_t TeapotExecs = 0;
  // Oracle outcomes, reported once per program after measuring.
  uint64_t NonHalting = 0, Mismatches = 0, Drifts = 0;
};

struct Samples {
  std::vector<std::vector<double>> Native, Teapot, SpecFuzz; // per program
  std::vector<double> PassExecsPerS;
};

class Fig7Runner {
public:
  Fig7Runner(Context &C, std::vector<Program> &Progs)
      : C(C), Progs(Progs), Order(RNG(subSeed(C.Opt.Seed, 0))) {}

  void pass(Samples &S) {
    S.Native.resize(Progs.size());
    S.Teapot.resize(Progs.size());
    S.SpecFuzz.resize(Progs.size());
    std::vector<size_t> Idx(Progs.size());
    for (size_t I = 0; I != Idx.size(); ++I)
      Idx[I] = I;
    for (size_t I = Idx.size(); I > 1; --I)
      std::swap(Idx[I - 1], Idx[Order.below(I)]);
    bool WithSpecFuzz = S.PassExecsPerS.size() % SpecFuzzEvery == 0;

    Timed Pass(C.Trace, "fig7.pass", Layer::Bench);
    uint64_t Execs = 0;
    for (size_t I : Idx) {
      Program &P = Progs[I];
      {
        Timed T(C.Trace, "NativeTarget::execute", Layer::Vm);
        P.Native->execute(P.Input);
        S.Native[I].push_back(T.stop() * 1e3);
      }
      {
        Timed T(C.Trace, "InstrumentedTarget::execute", Layer::Runtime);
        P.Teapot->execute(P.Input);
        S.Teapot[I].push_back(T.stop() * 1e3);
      }
      Execs += 2;
      if (WithSpecFuzz) {
        Timed T(C.Trace, "InstrumentedTarget::execute(specfuzz)",
                Layer::Runtime);
        P.SpecFuzz->execute(P.Input);
        S.SpecFuzz[I].push_back(T.stop() * 1e3);
        ++Execs;
      }
      check(P);
    }
    S.PassExecsPerS.push_back(static_cast<double>(Execs) / Pass.stop());
    C.Out.attempt(Execs);
  }

private:
  void check(Program &P) {
    const vm::StopState &N = P.Native->LastStop, &T = P.Teapot->LastStop;
    P.NonHalting += (N.Kind != vm::StopKind::Halted) +
                    (T.Kind != vm::StopKind::Halted);
    P.Mismatches += P.Teapot->M.output() != P.Native->M.output() ||
                    T.Kind != N.Kind || T.ExitStatus != N.ExitStatus;
    P.Drifts += P.Teapot->M.executedInsts() != P.TeapotInsts;
    ++P.TeapotExecs;
  }

  Context &C;
  std::vector<Program> &Progs;
  RNG Order;
};

std::vector<double> mediansOf(const std::vector<std::vector<double>> &V) {
  std::vector<double> M;
  for (const std::vector<double> &S : V)
    M.push_back(median(S));
  return M;
}

} // namespace

void runFig7(Context &C) {
  ScanConfig TeapotCfg = Exit(ScanConfig::preset("teapot"));
  ScanConfig SpecFuzzCfg = Exit(ScanConfig::preset("specfuzz-baseline"));
  std::vector<BinarySpec> Binaries;
  for (const Workload &W : allWorkloads()) {
    Binaries.push_back({W.Name, TeapotCfg});
    Binaries.push_back({W.Name, SpecFuzzCfg});
  }
  C.Trace.setEnabled(C.Opt.Trace);
  auto Scanners = setUp(C, Binaries, SetupReps);

  std::vector<Program> Progs;
  for (size_t I = 0; I != allWorkloads().size(); ++I) {
    const Workload &W = allWorkloads()[I];
    const Scanner &TP = *Scanners[2 * I], &SF = *Scanners[2 * I + 1];
    Program P;
    P.Name = W.Name;
    P.Input = W.LargeInput(InputBytes);
    P.Native = std::make_unique<NativeTarget>(*TP.binary(), RunBudget);
    P.Teapot = std::make_unique<InstrumentedTarget>(*TP.rewriteResult(),
                                                    perfRunTeapot(), RunBudget);
    P.SpecFuzz = std::make_unique<InstrumentedTarget>(
        *SF.rewriteResult(), perfRunSpecFuzz(), RunBudget);
    // First executions compile the JIT blocks: the Teapot one is the
    // cold-start sample, none of them is a latency sample.
    {
      Timed T(C.Trace, "InstrumentedTarget::execute(cold)", Layer::Runtime);
      P.Teapot->execute(P.Input);
      P.ColdMs = T.stop() * 1e3;
    }
    P.TeapotInsts = P.Teapot->M.executedInsts();
    P.Native->execute(P.Input);
    P.SpecFuzz->execute(P.Input);
    C.Out.attempt(3);
    Progs.push_back(std::move(P));
  }
  C.Out.note("workload fig7-large: %zu programs, %zu-byte LargeInput, "
             "SpecFuzz every %u passes",
             Progs.size(), InputBytes, SpecFuzzEvery);

  Fig7Runner Runner(C, Progs);
  Samples Plain, Traced;
  measure(C, C.Opt.Trace ? 2 * SpecFuzzEvery : MinPasses, Plain, Traced,
          [&](Samples &S) { Runner.pass(S); });
  for (const Program &P : Progs) {
    if (P.NonHalting)
      C.Out.fail(P.NonHalting, P.Name + ": executions did not halt");
    if (P.Mismatches)
      C.Out.fail(P.Mismatches, P.Name + ": Teapot output or stop state "
                                        "differs from native");
    if (P.Drifts) {
      C.Out.fail(P.Drifts, P.Name + ": Teapot guest instruction count "
                                    "drifted");
      C.Out.invalidate("non-deterministic execution");
    }
  }
  double PlainRate = throughput(Plain.PassExecsPerS);
  C.Out.endToEnd("execs_per_s", PlainRate);
  C.Out.endToEnd("exec_ms_p50", geomeanOfQuantiles(Plain.Teapot, 0.5));
  C.Out.endToEnd("exec_ms_p90", geomeanOfQuantiles(Plain.Teapot, 0.9));
  C.Out.perLayer("bench.exec_samples",
                 static_cast<double>(Plain.Teapot.front().size()));
  C.Out.note("untraced: %zu passes, %zu Teapot samples per program",
             Plain.PassExecsPerS.size(), Plain.Teapot.front().size());

  if (C.Opt.Trace) {
    std::vector<double> NMed = mediansOf(Traced.Native),
                        TMed = mediansOf(Traced.Teapot),
                        SMed = mediansOf(Traced.SpecFuzz);
    std::vector<double> Added, Slowdown, VsSpecFuzz, Cold;
    for (size_t I = 0; I != Progs.size(); ++I) {
      Added.push_back(TMed[I] - NMed[I]);
      Slowdown.push_back(TMed[I] / NMed[I]);
      VsSpecFuzz.push_back(TMed[I] / SMed[I]);
      Cold.push_back(Progs[I].ColdMs - TMed[I]);
    }
    C.Out.perLayer("trace.overhead_share",
                   1 - throughput(Traced.PassExecsPerS) / PlainRate);
    C.Out.perLayer("vm.native_exec_ms", geomean(NMed));
    C.Out.perLayer("baselines.specfuzz_exec_ms", geomean(SMed));
    C.Out.perLayer("runtime.added_ms", geomean(Added));
    C.Out.perLayer("runtime.slowdown_x", geomean(Slowdown));
    C.Out.perLayer("runtime.vs_specfuzz_x", geomean(VsSpecFuzz));
    C.Out.perLayer("vm.cold_exec_ms", mean(Cold));

    // Counters accumulate over every Teapot execution, the cold one too.
    uint64_t Execs = 0, Insts = 0, Sims = 0, TlbG = 0, TlbR = 0, Slow = 0,
             Fast = 0, TracedInsts = 0;
    double TeapotSecs = 0;
    for (size_t I = 0; I != Progs.size(); ++I) {
      const Program &P = Progs[I];
      Execs += P.TeapotExecs + 1;
      Insts += P.TeapotInsts * (P.TeapotExecs + 1);
      Sims += P.Teapot->RT.Stats.Simulations;
      fuzz::FuzzTarget::HotPathStats H = P.Teapot->hotPathStats();
      TlbG += H.TlbGuestHits;
      TlbR += H.TlbRuntimeHits;
      Slow += H.TlbSlowPathCalls;
      Fast += H.IntrinsicFastPathHits;
      TracedInsts += P.TeapotInsts * Traced.Teapot[I].size();
      for (double Ms : Traced.Teapot[I])
        TeapotSecs += Ms / 1e3;
    }
    double E = static_cast<double>(Execs);
    C.Out.perLayer("vm.guest_minsts_per_s",
                   static_cast<double>(TracedInsts) / TeapotSecs / 1e6);
    C.Out.perLayer("vm.guest_insts_per_exec", static_cast<double>(Insts) / E);
    C.Out.perLayer("vm.tlb_guest_hits_per_exec", static_cast<double>(TlbG) / E);
    C.Out.perLayer("vm.slow_path_calls_per_exec",
                   static_cast<double>(Slow) / E);
    C.Out.perLayer("runtime.tlb_runtime_hits_per_exec",
                   static_cast<double>(TlbR) / E);
    C.Out.perLayer("runtime.intrinsic_fast_path_hits_per_exec",
                   static_cast<double>(Fast) / E);
    C.Out.perLayer("runtime.simulations_per_exec",
                   static_cast<double>(Sims) / E);
    C.Out.note("Figure 7 ratios: Teapot %.1fx native (base %.4f ms), %.2fx "
               "SpecFuzz (base %.3f ms)",
               geomean(Slowdown), geomean(NMed), geomean(VsSpecFuzz),
               geomean(SMed));
  }

  double Gadgets = 0, Edges = 0;
  for (const Program &P : Progs) {
    Gadgets += static_cast<double>(P.Teapot->RT.Reports.unique().size());
    for (const std::vector<uint8_t> *Map :
         {&P.Teapot->normalCoverage(), &P.Teapot->specCoverage()})
      Edges += static_cast<double>(
          std::count_if(Map->begin(), Map->end(), [](uint8_t B) {
            return B != 0;
          }));
  }
  C.Out.endToEnd("gadgets_found", Gadgets);
  C.Out.endToEnd("edges_covered", Edges);
  // No injected sites: recall is vacuously 1.
  C.Out.endToEnd("recall_injected", 1.0);
}

} // namespace perfbench
