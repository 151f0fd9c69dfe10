#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/itemset.h"
#include "core/result.h"
#include "core/session.h"
#include "query/query.h"
#include "txn/catalog.h"
#include "txn/database.h"
#include "util/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 21;

double MsSince(Clock::time_point start);

// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon_path;  // the ccsmined binary
  std::size_t mt_threads = 4;
};

// Spans recorded around calls into the library, kept in memory and written
// when the run ends. A span's parent is the innermost span open on the same
// thread; a top-level span starts a new request id, which its descendants
// share. Disabled, a Scope costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: none
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  // Self time per layer: each span's duration minus the part covered by
  // its direct children, summed by layer, in milliseconds.
  std::map<std::string, double> SelfMsByLayer() const;
  std::size_t size() const;
  bool WriteJson(const std::string& path) const;

 private:
  std::uint64_t NowNs() const;

  std::atomic<bool> enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_request_ = 1;
  std::vector<Span> spans_;
};

// One operation of the closed loop, with what the run checks it against:
// `key` names the reference digest in Output::refs ("" = checked by status
// alone).
struct Op {
  std::string kind;
  std::string status;  // "ok", "refused" or "error"
  std::string key;
  std::string digest;
};

// Everything one run measured, printed as one JSON line for run.py.
struct Output {
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::uint64_t rate_ops = 0;
  double rate_seconds = 0.0;
  std::vector<Op> ops;
  std::map<std::string, std::string> refs;
  std::map<std::string, std::string> notes;

  void Add(const std::string& series_name, double sample) {
    series[series_name].push_back(sample);
  }
  std::string ToJson() const;
};

// 64-bit FNV-1a over `text`, as 16 hex digits.
std::string Digest(const std::string& text);

// "SET <itemset>\n" per answer: the bytes ccsmined sends for a MINE.
std::string RenderAnswers(const std::vector<ccs::Itemset>& answers);

struct Dataset {
  std::string baskets_path;
  std::string catalog_path;
  std::size_t num_items = 0;
};

// IBM-style baskets from src/datagen and the linear price catalog, written
// to files in the working directory. The same seed gives the same files.
// With many more patterns than items nearly every item is frequent, so the
// candidate lattice, and with it the work of a run, barely moves between
// seeds. `blocks` > 1 concatenates that many independent draws (each with
// its own patterns), a stream whose correlations drift block by block.
Dataset GenerateIbm(const std::string& name, std::size_t baskets,
                    std::size_t items, std::size_t patterns,
                    std::uint64_t seed, std::size_t blocks = 1);

// One timed in-process set-up: load the files (the loader finalizes the
// database) and create the handle; adds txn.load_ms and handle.create_ms
// samples and sets *seconds to their sum. With `time_finalize`, also times
// Finalize on an unfinalized copy of the baskets (txn.finalize_ms), outside
// *seconds. Returns an invalid handle when the files do not load.
ccs::DatabaseHandle SetUp(const Dataset& data,
                          const ccs::HandleOptions& options,
                          bool time_finalize, Tracer* tracer, Output* out,
                          double* seconds);

double Median(std::vector<double> samples);

// One query as a MINE request spells it: the query text (full query grammar
// or bare constraint language) plus the optional field overrides, kept as
// the strings sent on the wire so both sides parse the same digits.
struct QuerySpec {
  std::string query;
  std::string algorithm;  // "" = the query's default algorithm
  std::string alpha;      // "" = absent
  std::string support;
  std::string cell;
  std::string max_size;

  // "MINE threads=<n> [fields] [metrics=1] query=<text>".
  std::string MineLine(std::size_t threads, bool metrics) const;
};

// The MiningRequest ccsmined assembles for `spec` over `db`, exactly as
// MiningService::HandleMine does; `query` must outlive the request.
ccs::StatusOr<ccs::MiningRequest> BuildRequest(
    const QuerySpec& spec, const ccs::TransactionDatabase& db,
    ccs::Query* query, Tracer* tracer, Output* out);

// parse -> MiningSession::Run -> render for one query; adds query.parse_us,
// session.run_ms and render_ms samples to `out`.
struct QueryRun {
  bool ok = false;
  std::string body;  // RenderAnswers of the answers
  double run_ms = 0.0;
  double cpu_s = 0.0;  // process CPU time spent inside Run
  ccs::MetricsSnapshot metrics;
};
QueryRun RunQuery(const ccs::MiningSession& session, const QuerySpec& spec,
                  Tracer* tracer, Output* out);

// Adds a run's exported counters to `sums`; "<name>_ns" timings become
// "<name>_ms".
void AddRunMetrics(const ccs::MetricsSnapshot& metrics,
                   std::map<std::string, double>* sums);
// The same from a METRICS line as ccsmined sends it (MetricsSnapshot::ToJson).
void AddMetricsJson(const std::string& json,
                    std::map<std::string, double>* sums);
// Adds ct.tables_per_s and ct_cache.hit_ratio to one operation's sums.
void AddDerived(std::map<std::string, double>* sums);

// Process CPU seconds (user + system) of this process.
double ProcessCpuSeconds();
// Peak resident set of this process or of `pid`, in MiB (VmHWM).
double PeakRssMb(int pid = 0);
// CPU seconds a child process has used so far (utime + stime).
double ChildCpuSeconds(int pid);

// Workload entry points; each fills `out` and returns false on a setup
// error that makes the run meaningless (printed to stderr).
bool RunDeepIbm(const Settings& settings, Tracer* tracer, Output* out);
bool RunWideIbm(const Settings& settings, Tracer* tracer, Output* out);
bool RunDaemonMix(const Settings& settings, Tracer* tracer, Output* out);
bool RunStreamWindow(const Settings& settings, Tracer* tracer, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
