//===- perfbench/src/main.cpp - Repository benchmark binary ---------------===//
//
//   teapot_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-file PATH]
//
// Runs one workload for about S seconds of measurement, checks its
// outputs, prints one line per metric, and ends with the result object
// on the last stdout line: end-to-end metrics with --trace 0, per-layer
// metrics (plus the tracing overhead) with --trace 1. With --trace 1 and
// --trace-file, the spans are written there as Chrome trace-event JSON.
// perfbench/run.py builds this binary and forwards its arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StringUtils.h"

#include <cstring>
#include <thread>

using namespace teapot;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS ""
#endif

namespace {

struct WorkloadEntry {
  const char *Name;
  void (*Run)(Context &);
};

const WorkloadEntry Workloads[] = {
    {"campaign-libhtp-1w", runCampaignWorkload},
    {"campaign-inject-2w", runCampaignWorkload},
    {"fig7-large", runFig7},
    {"fleet-proggen", runFleet},
};

int usage(const char *Msg) {
  fprintf(stderr, "teapot_perfbench: %s\nusage: teapot_perfbench --workload "
                  "NAME --seed N --seconds S --trace 0|1 [--trace-file "
                  "PATH]\nworkloads:",
          Msg);
  for (const WorkloadEntry &W : Workloads)
    fprintf(stderr, " %s", W.Name);
  fprintf(stderr, "\n");
  return 2;
}

/// Records the host and build, and marks the results invalid when the
/// binary is unoptimized or sanitized: such numbers say nothing about
/// the system's speed.
void guardHostAndBuild(Context &C) {
  unsigned NProc = std::thread::hardware_concurrency();
  vm::Machine::Engine Eng = vm::resolveEngine(vm::Machine::Engine::Jit);
  bool Jit = Eng == vm::Machine::Engine::Jit;
  C.Out.note("host: %u hardware threads, engine %s, jit backend %s", NProc,
             vm::engineName(Eng), Jit ? "yes" : "no");
  C.Out.note("build flags: %s", PERFBENCH_BUILD_FLAGS);
  C.Out.perLayer("host.nproc", NProc);
  C.Out.perLayer("host.jit_backend", Jit ? 1 : 0);
#ifndef __OPTIMIZE__
  C.Out.invalidate("the benchmark was built without optimization");
#endif
  if (strstr(PERFBENCH_BUILD_FLAGS, "-fsanitize"))
    C.Out.invalidate("the benchmark was built with sanitizers");
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    if (Arg == "--workload") {
      Opt.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      auto Seed = support::parseUInt(Val, "seed", ~0ULL);
      if (!Seed)
        return usage(Seed.message().c_str());
      Opt.Seed = *Seed;
    } else if (Arg == "--seconds") {
      auto Secs = support::parseUInt(Val, "seconds", 3600);
      if (!Secs || *Secs == 0)
        return usage("--seconds expects a whole number from 1 to 3600");
      Opt.Seconds = static_cast<double>(*Secs);
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("--trace expects 0 or 1");
      Opt.Trace = Val == "1";
    } else if (Arg == "--trace-file") {
      Opt.TraceFile = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  const WorkloadEntry *Entry = nullptr;
  for (const WorkloadEntry &W : Workloads)
    if (Opt.Workload == W.Name)
      Entry = &W;
  if (!Entry)
    return usage(("unknown workload '" + Opt.Workload + "'").c_str());

  Context C(Opt);
  C.Out.note("perfbench: workload %s, seed %llu, %.0f s, trace %d",
             Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
             Opt.Seconds, Opt.Trace ? 1 : 0);
  guardHostAndBuild(C);
  Entry->Run(C);

  C.Out.endToEnd("peak_rss_mb", peakRssMiB());
  C.Out.endToEnd("ok_ratio",
                 1 - static_cast<double>(C.Out.failed()) /
                         static_cast<double>(std::max<uint64_t>(
                             C.Out.attempted(), 1)));
  C.Out.note("failed_ratio: %llu failed of %llu attempted operations",
             static_cast<unsigned long long>(C.Out.failed()),
             static_cast<unsigned long long>(C.Out.attempted()));
  if (Opt.Trace) {
    reportTraceLayers(C);
    if (!Opt.TraceFile.empty()) {
      if (Error E = C.Trace.write(Opt.TraceFile)) {
        fprintf(stderr, "teapot_perfbench: %s\n", E.message().c_str());
        return 1;
      }
      C.Out.note("trace: %zu spans written to %s", C.Trace.size(),
                 Opt.TraceFile.c_str());
    }
  }
  return C.Out.print(Opt.Trace) ? 0 : 1;
}
