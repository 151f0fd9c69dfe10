// In-process workloads: the engine driven through MiningSession, no
// service in between (deep_ibm, wide_ibm).

#include <sched.h>

#include <cstdio>

#include "harness/common.h"

namespace perfbench {

namespace {

// Pins the calling thread to each CPU the process may use in turn. The
// sequential measurements (set-ups, 1-thread passes) rotate this way, so
// that one contended core on a shared host does not set a whole run's
// numbers; the parallel passes run unpinned.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNext() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Unpin() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct InprocWorkload {
  const char* name;
  std::size_t baskets;
  std::size_t items;
  std::size_t patterns;
  std::vector<QuerySpec> queries;
};

struct Pass {
  bool ok = true;
  double ms = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::string body;
  std::map<std::string, double> sums;  // engine counters + bench timings
};

Pass RunPass(const ccs::MiningSession& session,
             const std::vector<QuerySpec>& queries, const char* span_name,
             Tracer* tracer) {
  Pass pass;
  Output scratch;
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope span(tracer, "bench", span_name);
    for (const QuerySpec& spec : queries) {
      QueryRun run = RunQuery(session, spec, tracer, &scratch);
      pass.ok = pass.ok && run.ok;
      pass.body += run.body;
      pass.run_s += run.run_ms / 1e3;
      pass.cpu_s += run.cpu_s;
      AddRunMetrics(run.metrics, &pass.sums);
    }
  }
  pass.ms = MsSince(start);
  for (const auto& [name, samples] : scratch.series) {
    for (const double sample : samples) pass.sums[name] += sample;
  }
  AddDerived(&pass.sums);
  return pass;
}

bool RunInproc(const InprocWorkload& workload, const Settings& settings,
               Tracer* tracer, Output* out) {
  const Dataset data =
      GenerateIbm(workload.name, workload.baskets, workload.items,
                  workload.patterns, settings.seed);
  if (data.baskets_path.empty()) {
    std::fprintf(stderr, "cannot write the generated dataset\n");
    return false;
  }
  ccs::DatabaseHandle handle;
  CpuRotation rotation;
  tracer->set_enabled(settings.trace);
  for (int i = 0; i < kSetups; ++i) {
    rotation.PinNext();
    double seconds = 0.0;
    handle = SetUp(data, {}, settings.trace, tracer, out, &seconds);
    if (!handle.valid()) {
      std::fprintf(stderr, "cannot load the generated dataset\n");
      return false;
    }
    out->setup_s.push_back(seconds);
  }
  rotation.Unpin();
  tracer->set_enabled(false);
  ccs::EngineOptions serial_options;
  serial_options.num_threads = 1;
  ccs::EngineOptions parallel_options;
  parallel_options.num_threads = settings.mt_threads;
  const ccs::MiningSession serial(handle, serial_options);
  const ccs::MiningSession parallel(handle, parallel_options);

  // Warm-up at the parallel width: fills the executor pool and fixes the
  // answer every timed pass, at either width, must reproduce byte for byte.
  const Pass warmup = RunPass(parallel, workload.queries, "warmup", nullptr);
  if (!warmup.ok) {
    std::fprintf(stderr, "warm-up pass did not complete\n");
    return false;
  }
  out->refs["answers"] = Digest(warmup.body);

  // A traced run measures its first half untraced, so that the difference
  // of the two halves is the tracing overhead.
  const Clock::time_point start = Clock::now();
  std::size_t iterations = 0;
  while (MsSince(start) < settings.seconds * 1e3 || iterations < 3) {
    const bool untraced_half =
        settings.trace && MsSince(start) < settings.seconds * 1e3 / 2;
    tracer->set_enabled(settings.trace && !untraced_half);

    rotation.PinNext();
    const Pass one = RunPass(serial, workload.queries, "pass_1t", tracer);
    rotation.Unpin();
    out->Add(untraced_half ? "query_ms.untraced" : "query_ms", one.ms);
    out->ops.push_back({"pass_1t", one.ok ? "ok" : "error", "answers",
                        Digest(one.body)});
    if (!untraced_half) {
      for (const auto& [name, value] : one.sums) out->Add(name, value);
    }

    const Pass mt = RunPass(parallel, workload.queries, "pass_mt", tracer);
    out->Add("query_mt_ms", mt.ms);
    out->Add("executor.cpu_util",
             mt.cpu_s / (mt.run_s * static_cast<double>(settings.mt_threads)));
    out->ops.push_back(
        {"pass_mt", mt.ok ? "ok" : "error", "answers", Digest(mt.body)});
    ++iterations;
  }
  tracer->set_enabled(false);
  out->values["peak_rss_mb"] = PeakRssMb();
  return true;
}

}  // namespace

bool RunDeepIbm(const Settings& settings, Tracer* tracer, Output* out) {
  // ROADMAP's W1 query shape over fewer, all-frequent items: 95,875
  // contingency tables per run on every seed, table building about 90% of
  // the run, candidate generation and the pair stage small.
  InprocWorkload workload{"deep_ibm", 20000, 40, 400, {}};
  QuerySpec spec;
  spec.algorithm = "BMS**";
  spec.query = "min(S.price) <= 20";
  spec.support = "0.05";
  spec.cell = "0.25";
  spec.alpha = "0.9";
  spec.max_size = "4";
  workload.queries.push_back(spec);
  return RunInproc(workload, settings, tracer, out);
}

bool RunWideIbm(const Settings& settings, Tracer* tracer, Output* out) {
  // Many items, shallow lattice: serial candidate generation is about two
  // thirds of every run, the answer sets are large (about 70k sets, 1 MB
  // rendered per pass), and the pair stage engages.
  InprocWorkload workload{"wide_ibm", 8000, 150, 1500, {}};
  QuerySpec anti_monotone;
  anti_monotone.algorithm = "BMS++";
  anti_monotone.query = "min(S.price) <= 75";
  anti_monotone.support = "0.02";
  anti_monotone.max_size = "3";
  QuerySpec monotone = anti_monotone;
  monotone.algorithm = "BMS+";
  monotone.query = "max(S.price) >= 110";
  workload.queries = {anti_monotone, monotone};
  return RunInproc(workload, settings, tracer, out);
}

}  // namespace perfbench
