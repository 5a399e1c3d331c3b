//===- perfbench/src/Campaigns.cpp - Campaign workloads -------------------===//
//
// campaign-libhtp-1w  teapot preset, jit tier, one worker on libhtp: guest
//                     execution and runtime intrinsics are nearly all of
//                     the wall time, and there is no barrier wait.
// campaign-inject-2w  the same preset on libyaml with Table 3 gadget
//                     injection, two workers and short epochs: epoch
//                     barriers, corpus merge, GadgetSink and imports,
//                     and the injected-site recall.
//
// Closed loop: one Scanner::run() at a fixed execution budget after
// another. Runs cycle through a few sub-seeds of the benchmark seed;
// every repeat of a sub-seed must reproduce its deterministic counts
// exactly. After each run, a few passes replay the workload's seed
// inputs on a warm target configured like the campaign's: the
// per-execution latency samples, taken as fig7-large takes them (per
// input, then the geomean over inputs). Per-epoch times would swing with
// every stall of either worker, and a fuzzed corpus with the seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <map>

using namespace teapot;

namespace perfbench {

static support::ExitOnError Exit("perfbench: ");

namespace {

struct CampaignSpec {
  const char *Name;
  const char *Target;
  unsigned Workers;
  bool Inject;
  /// Executions per run() (summed over workers).
  uint64_t Budget;
  /// Per-worker executions per epoch.
  uint64_t SyncInterval;
  /// Executions of the interpreter-tier oracle replay.
  uint64_t OracleBudget;
};

const CampaignSpec Specs[] = {
    {"campaign-libhtp-1w", "libhtp", 1, false, 480, 32, 96},
    {"campaign-inject-2w", "libyaml", 2, true, 1024, 32, 128},
};

/// Sub-seeds a run cycles through; each one's deterministic counts are
/// checked on every repeat.
constexpr unsigned NumSubSeeds = 3;
constexpr unsigned SetupReps = 41;
/// Passes over the workload's seed inputs after each timed run.
constexpr unsigned ReplayPasses = 10;

/// The counts that must repeat exactly between runs of one seed.
std::string fingerprint(const ScanResult &R) {
  ScanResult N = R;
  N.normalizeRunVarying();
  // normalizeRunVarying drops the per-engine hot-path counters; within
  // one engine they are deterministic too.
  return N.toJson().dump() + "|" + std::to_string(R.TlbGuestHits) + "," +
         std::to_string(R.TlbRuntimeHits) + "," +
         std::to_string(R.TlbSlowPathCalls) + "," +
         std::to_string(R.IntrinsicFastPathHits);
}

/// Samples gathered over one measurement phase.
struct Phase {
  std::vector<double> ExecsPerS, EpochS, MInstsPerS;
  std::vector<double> GuestInstsPerExec, TlbGuest, SlowPath, TlbRuntime,
      FastPath, Skew, AddsPerKexec, Imports, Epochs;
  std::vector<std::vector<double>> InputMs; // per replayed corpus input
};

class CampaignRunner {
public:
  CampaignRunner(Context &C, Scanner &S) : C(C), S(S) {}

  /// Deterministic per-sub-seed outcomes (first run of each).
  std::map<uint64_t, ScanResult> FirstResult;
  ScanResult Last;

  void runOnce(Phase &P) {
    uint64_t Seed = subSeed(C.Opt.Seed, RunIndex % NumSubSeeds);
    S.config().Campaign.Seed = Seed;

    std::vector<double> EpochS;
    Clock::time_point Prev;
    S.OnEpoch = [&](const fuzz::CampaignProgress &) {
      Clock::time_point Now = Clock::now();
      C.Trace.record("fuzz.epoch", Layer::Fuzz, Prev, Now);
      EpochS.push_back(secondsBetween(Prev, Now));
      Prev = Now;
    };
    ScanResult R;
    double Wall;
    {
      Timed T(C.Trace, "Scanner::run", Layer::Fuzz);
      Prev = T.start();
      R = Exit(S.run());
      Wall = T.stop();
    }
    S.OnEpoch = nullptr;

    C.Out.attempt(R.Executions);
    if (uint64_t Bad = R.Quarantined + R.WatchdogTrips)
      C.Out.fail(Bad, "campaign quarantined or watchdog-cut executions");
    std::string FP = fingerprint(R);
    auto [It, New] = Fingerprints.emplace(Seed, FP);
    if (New) {
      FirstResult.emplace(Seed, R);
    } else if (It->second != FP) {
      C.Out.fail(1, "determinism drift: a repeated campaign of seed " +
                        std::to_string(Seed) + " produced different counts");
      C.Out.invalidate("campaign results drifted between runs of one seed");
    }
    Last = R;

    // The process's first campaign pays one-time warm-up (allocator
    // growth, first mappings); it is checked but not timed. The latency
    // target is warmed here too.
    if (RunIndex++ == 0) {
      for (const std::vector<uint8_t> &Seed : S.seeds()) {
        if (!S.injection()) {
          Replay.push_back(Seed);
          continue;
        }
        // The Table 3 seed schedule (Scanner::run): each seed with an
        // out-of-bounds and an in-bounds injected-slot value.
        for (uint8_t Poke : {200, 5}) {
          Replay.push_back(Seed);
          Replay.back().insert(Replay.back().end(),
                               {Poke, 0, 0, 0, 0, 0, 0, 0});
        }
      }
      Latency = instrumentedTarget(S);
      for (const std::vector<uint8_t> &In : Replay)
        Latency->execute(In);
      C.Out.attempt(Replay.size());
      return;
    }
    replay(P);
    double Execs = static_cast<double>(R.Executions);
    P.ExecsPerS.push_back(Execs / Wall);
    P.EpochS.insert(P.EpochS.end(), EpochS.begin(), EpochS.end());
    P.MInstsPerS.push_back(static_cast<double>(R.GuestInsts) / Wall / 1e6);
    P.GuestInstsPerExec.push_back(static_cast<double>(R.GuestInsts) / Execs);
    P.TlbGuest.push_back(static_cast<double>(R.TlbGuestHits) / Execs);
    P.SlowPath.push_back(static_cast<double>(R.TlbSlowPathCalls) / Execs);
    P.TlbRuntime.push_back(static_cast<double>(R.TlbRuntimeHits) / Execs);
    P.FastPath.push_back(static_cast<double>(R.IntrinsicFastPathHits) /
                         Execs);
    std::vector<double> WorkerInsts;
    for (const ScanWorkerStats &W : R.PerWorker)
      WorkerInsts.push_back(static_cast<double>(W.GuestInsts));
    double MeanInsts = mean(WorkerInsts);
    P.Skew.push_back(MeanInsts > 0 ? *std::max_element(WorkerInsts.begin(),
                                                       WorkerInsts.end()) /
                                         MeanInsts
                                   : 0);
    P.AddsPerKexec.push_back(static_cast<double>(R.CorpusAdds) * 1e3 / Execs);
    P.Imports.push_back(static_cast<double>(R.Imports));
    P.Epochs.push_back(static_cast<double>(R.Epochs));
  }

  /// Replayed executions that did not halt.
  uint64_t NonHalting = 0;

private:
  void replay(Phase &P) {
    P.InputMs.resize(Replay.size());
    for (unsigned Pass = 0; Pass != ReplayPasses; ++Pass)
      for (size_t I = 0; I != Replay.size(); ++I) {
        Timed T(C.Trace, "InstrumentedTarget::execute", Layer::Runtime);
        Latency->execute(Replay[I]);
        P.InputMs[I].push_back(T.stop() * 1e3);
        NonHalting += Latency->LastStop.Kind != vm::StopKind::Halted;
      }
    C.Out.attempt(ReplayPasses * Replay.size());
  }

  Context &C;
  Scanner &S;
  unsigned RunIndex = 0;
  std::map<uint64_t, std::string> Fingerprints;
  std::vector<std::vector<uint8_t>> Replay;
  std::unique_ptr<workloads::InstrumentedTarget> Latency;
};

/// Injected sites the detector reported, over the sites the injector
/// placed (the injector's ground truth, not the detector's).
double recall(const workloads::InjectionResult &Inj, const ScanResult &R) {
  size_t Hit = 0;
  for (uint64_t Site : Inj.SiteMarkers)
    Hit += std::any_of(R.Gadgets.begin(), R.Gadgets.end(),
                       [&](const runtime::GadgetReport &G) {
                         return G.Site == Site;
                       });
  return static_cast<double>(Hit) /
         static_cast<double>(Inj.SiteMarkers.size());
}

} // namespace

void runCampaignWorkload(Context &C) {
  const CampaignSpec *Spec = nullptr;
  for (const CampaignSpec &S : Specs)
    if (C.Opt.Workload == S.Name)
      Spec = &S;

  ScanConfig Cfg = Exit(ScanConfig::preset("teapot"));
  Cfg.Engine = vm::Machine::Engine::Jit;
  Cfg.Campaign.Workers = Spec->Workers;
  Cfg.Campaign.TotalIterations = Spec->Budget;
  Cfg.Campaign.SyncInterval = Spec->SyncInterval;
  Cfg.Campaign.MaxInputLen = 512;
  Cfg.InjectGadgets = Spec->Inject;

  C.Trace.setEnabled(C.Opt.Trace);
  auto Scanners = setUp(C, {{Spec->Target, Cfg}}, SetupReps);
  Scanner &S = *Scanners.front();
  C.Out.note("workload %s: %s, %u worker(s), %llu executions per run, "
             "%llu executions per epoch and worker",
             Spec->Name, Spec->Target, Spec->Workers,
             static_cast<unsigned long long>(Spec->Budget),
             static_cast<unsigned long long>(Spec->SyncInterval));

  CampaignRunner Runner(C, S);
  // The warm-up run plus one run per sub-seed, so every run of the
  // benchmark aggregates the same sub-seeds (and, traced, at least two
  // runs of each kind).
  Phase Plain, Traced;
  measure(C, 1 + std::max(NumSubSeeds, 4u), Plain, Traced,
          [&](Phase &P) { Runner.runOnce(P); });

  if (Runner.NonHalting)
    C.Out.fail(Runner.NonHalting, "replayed corpus executions did not halt");

  double PlainRate = throughput(Plain.ExecsPerS);
  size_t Samples = Plain.InputMs.front().size();
  C.Out.endToEnd("execs_per_s", PlainRate);
  C.Out.endToEnd("exec_ms_p50", geomeanOfQuantiles(Plain.InputMs, 0.5));
  C.Out.endToEnd("exec_ms_p90", geomeanOfQuantiles(Plain.InputMs, 0.9));
  C.Out.perLayer("bench.exec_samples", static_cast<double>(Samples));
  C.Out.note("untraced: %zu timed runs, %.1f execs/s upper quartile (%s); "
             "%zu corpus inputs x %zu latency samples",
             Plain.ExecsPerS.size(), PlainRate,
             formatList(Plain.ExecsPerS, 0).c_str(), Plain.InputMs.size(),
             Samples);

  if (C.Opt.Trace) {
    double TracedRate = throughput(Traced.ExecsPerS);
    C.Out.perLayer("trace.overhead_share", 1 - TracedRate / PlainRate);
    C.Out.perLayer("vm.guest_minsts_per_s", median(Traced.MInstsPerS));
    C.Out.perLayer("vm.guest_insts_per_exec", mean(Traced.GuestInstsPerExec));
    C.Out.perLayer("vm.tlb_guest_hits_per_exec", mean(Traced.TlbGuest));
    C.Out.perLayer("vm.slow_path_calls_per_exec", mean(Traced.SlowPath));
    C.Out.perLayer("runtime.tlb_runtime_hits_per_exec",
                   mean(Traced.TlbRuntime));
    C.Out.perLayer("runtime.intrinsic_fast_path_hits_per_exec",
                   mean(Traced.FastPath));
    C.Out.perLayer("fuzz.epoch_s_p50", median(Traced.EpochS));
    C.Out.perLayer("fuzz.epoch_s_max",
                   quantile(Traced.EpochS, 1.0));
    C.Out.perLayer("fuzz.worker_skew", mean(Traced.Skew));
    C.Out.perLayer("fuzz.corpus_adds_per_kexec", mean(Traced.AddsPerKexec));
    C.Out.perLayer("fuzz.imports", mean(Traced.Imports));
    C.Out.perLayer("fuzz.epochs", mean(Traced.Epochs));
    C.Trace.setEnabled(true);
    snapshotProbe(C, S, Runner.Last);
    execProbe(C, S, S.corpus());
  }

  interpOracle(C, S, Spec->OracleBudget);

  std::vector<double> Gadgets, Edges, Recall;
  for (const auto &[Seed, R] : Runner.FirstResult) {
    Gadgets.push_back(static_cast<double>(R.Gadgets.size()));
    Edges.push_back(static_cast<double>(R.NormalEdges + R.SpecEdges));
    if (const workloads::InjectionResult *Inj = S.injection())
      Recall.push_back(recall(*Inj, R));
  }
  C.Out.endToEnd("gadgets_found", mean(Gadgets));
  C.Out.endToEnd("edges_covered", mean(Edges));
  // Without injected sites nothing can be missed: recall is vacuously 1.
  C.Out.endToEnd("recall_injected", Recall.empty() ? 1.0 : mean(Recall));
  C.Out.note("deterministic counts over %zu sub-seeds: %.2f gadgets, %.1f "
             "edges%s",
             Runner.FirstResult.size(), mean(Gadgets), mean(Edges),
             Recall.empty() ? " (no injected sites)" : "");
}

} // namespace perfbench
