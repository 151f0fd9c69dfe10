// Daemon workloads: a spawned ccsmined driven through ccs::client over its
// Unix socket (daemon_mix, stream_window).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>
#include <sstream>
#include <thread>

#include "client/client.h"
#include "harness/common.h"
#include "query/query.h"
#include "service/service.h"
#include "stream/delta_miner.h"
#include "stream/streaming_database.h"
#include "txn/io.h"
#include "util/executor_pool.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr const char* kSocket = "ccsmined.sock";

ccs::client::Client MakeClient() {
  ccs::client::ClientOptions options;
  options.socket_path = kSocket;
  options.response_deadline = std::chrono::milliseconds(60000);
  // No retries: a refused request is a failure of the closed loop, never
  // hidden behind a backoff.
  options.backoff.max_attempts = 1;
  return ccs::client::Client(options);
}

// A ccsmined child process. The destructor stops it and waits for it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon and waits for its first PONG; returns the seconds
  // from spawn to that PONG, or a negative value on failure.
  double Start(const std::string& binary, std::vector<std::string> args,
               Tracer* tracer) {
    ::unlink(kSocket);
    args.insert(args.begin(), {binary, "--socket", kSocket});
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "ccsmined.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    Tracer::Scope span(tracer, "service", "ccsmined spawn to PONG");
    const Clock::time_point start = Clock::now();
    const int spawned = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      pid_ = -1;
      return -1.0;
    }
    ccs::client::Client client = MakeClient();
    while (MsSince(start) < 60000.0) {
      const ccs::StatusOr<ccs::client::Response> pong = client.Request("PING");
      if (pong.ok() && pong.value().header == "OK pong") {
        return MsSince(start) / 1e3;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1.0;
  }

  int pid() const { return pid_; }

  // SHUTDOWN, then waits; a daemon that does not exit within ten seconds
  // is killed. Returns whether it exited cleanly with code 0.
  bool Stop() {
    if (pid_ < 0) return true;
    ccs::client::Client client = MakeClient();
    const bool asked = client.Request("SHUTDOWN").ok();
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (asked && MsSince(start) < 10000.0) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
};

std::string StatusName(const ccs::Status& status) {
  if (status.ok()) return "ok";
  return status.code() == ccs::StatusCode::kUnavailable ? "refused" : "error";
}

// The SET lines of a response laid out as RenderAnswers does: in response
// order, or sorted for comparison with an answer set kept as a std::set.
std::string SetLines(const std::vector<std::string>& lines, bool sorted) {
  std::vector<std::string> sets;
  for (const std::string& line : lines) {
    if (line.rfind("SET ", 0) == 0) sets.push_back(line);
  }
  if (sorted) std::sort(sets.begin(), sets.end());
  std::string body;
  for (const std::string& set : sets) body += set + "\n";
  return body;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The number after `field` in `json` (first occurrence), or 0.
double JsonNumber(const std::string& json, const std::string& field) {
  const std::size_t at = json.find(field);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + field.size(), nullptr);
}

// A stream of pseudo-random words from the seed; identical everywhere,
// unlike the standard distributions.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- daemon_mix

// Distinct cold queries: pair-dominated BMS++ at max size 2, each with its
// own support, alpha and price threshold. The set is an even sample of an
// 11 x 11 x 21 grid, the same on every seed; the seed orders it.
std::vector<QuerySpec> ColdKeys(std::uint64_t seed, std::size_t count) {
  constexpr std::size_t kGrid = 11 * 11 * 21;
  std::vector<std::uint64_t> cells(count);
  for (std::size_t i = 0; i < count; ++i) cells[i] = i * kGrid / count;
  for (std::size_t i = count - 1; i > 0; --i) {
    std::swap(cells[i], cells[Mix(seed, i) % (i + 1)]);
  }
  std::vector<QuerySpec> keys;
  for (const std::uint64_t cell : cells) {
    char support[16];
    char alpha[16];
    std::snprintf(support, sizeof(support), "0.0%03d",
                  150 + static_cast<int>(cell % 11) * 10);
    std::snprintf(alpha, sizeof(alpha), "0.%02d",
                  85 + static_cast<int>(cell / 11 % 11));
    QuerySpec spec;
    spec.algorithm = "BMS++";
    spec.query = "min(S.price) <= " + std::to_string(50 + cell / 121 * 5);
    spec.support = support;
    spec.alpha = alpha;
    spec.max_size = "2";
    keys.push_back(spec);
  }
  return keys;
}

// The shared state of the closed loop: which request comes next.
class MixScript {
 public:
  MixScript(std::uint64_t seed, std::size_t num_keys)
      : seed_(seed), num_keys_(num_keys) {}

  struct Next {
    enum Kind { kMine, kPing, kStats } kind = kMine;
    std::size_t key = 0;
  };

  // About half cold keys, 40% repeats of a recently answered key, the rest
  // PING and STATS.
  Next Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t draw = Mix(seed_, index_++);
    const std::uint64_t bucket = draw % 100;
    Next next;
    if (bucket >= 95) {
      next.kind = Next::kStats;
    } else if (bucket >= 90) {
      next.kind = Next::kPing;
    } else if (bucket >= 50 && !recent_.empty()) {
      next.key = recent_[(draw >> 8) % recent_.size()];
    } else {
      next.key = cold_++ % num_keys_;
    }
    return next;
  }

  void Answered(std::size_t key) {
    const std::lock_guard<std::mutex> lock(mu_);
    recent_.push_back(key);
    if (recent_.size() > 8) recent_.pop_front();
  }

 private:
  const std::uint64_t seed_;
  const std::size_t num_keys_;
  std::mutex mu_;
  std::uint64_t index_ = 0;
  std::size_t cold_ = 0;
  std::deque<std::size_t> recent_;
};

struct LoopResult {
  Output out;
  std::size_t requests = 0;
};

void MixClient(const std::vector<QuerySpec>& keys, MixScript* script,
               Clock::time_point start, double seconds, bool trace,
               Tracer* tracer, LoopResult* result) {
  ccs::client::Client client = MakeClient();
  Output& out = result->out;
  while (MsSince(start) < seconds * 1e3) {
    const bool untraced_half = trace && MsSince(start) < seconds * 1e3 / 2;
    const MixScript::Next next = script->Take();
    std::string line = "PING";
    if (next.kind == MixScript::Next::kStats) line = "STATS";
    if (next.kind == MixScript::Next::kMine) {
      line = keys[next.key].MineLine(1, trace && !untraced_half);
    }
    const Clock::time_point sent = Clock::now();
    ccs::StatusOr<ccs::client::Response> response =
        ccs::Status(ccs::InternalError("not sent"));
    {
      Tracer::Scope span(tracer, "client", "Client::Request");
      response = client.Request(line);
    }
    const double ms = MsSince(sent);
    ++result->requests;
    Op op;
    op.status = StatusName(response.status());
    if (next.kind != MixScript::Next::kMine) {
      op.kind = next.kind == MixScript::Next::kPing ? "ping" : "stats";
      out.Add(op.kind + "_ms", ms);
      out.ops.push_back(op);
      continue;
    }
    op.key = "k" + std::to_string(next.key);
    if (!response.ok()) {
      op.kind = "mine";
      out.ops.push_back(op);
      continue;
    }
    const bool hit =
        response.value().header.find("memo=hit") != std::string::npos;
    op.kind = hit ? "mine_memo" : "mine_cold";
    op.digest = Digest(SetLines(response.value().body, false));
    out.ops.push_back(op);
    out.Add(untraced_half ? op.kind + "_ms.untraced" : op.kind + "_ms", ms);
    if (hit) continue;
    script->Answered(next.key);
    if (trace && !untraced_half) {
      std::map<std::string, double> sums;
      for (const std::string& body_line : response.value().body) {
        if (body_line.rfind("METRICS ", 0) == 0) {
          AddMetricsJson(body_line, &sums);
        }
      }
      AddDerived(&sums);
      for (const auto& [name, value] : sums) out.Add(name, value);
    }
  }
}

void Merge(const Output& from, Output* into) {
  for (const auto& [name, samples] : from.series) {
    std::vector<double>& to = into->series[name];
    to.insert(to.end(), samples.begin(), samples.end());
  }
  into->ops.insert(into->ops.end(), from.ops.begin(), from.ops.end());
}

// In-process replay of the mix through MiningService::HandleLine, with the
// executor-pool lease count around every call: each MiningSession::Run
// leases exactly one executor, so a memo hit that ran no session shows
// zero leases.
void ReplayInProcess(const ccs::DatabaseHandle& handle,
                     const ccs::service::ServiceOptions& options,
                     const std::vector<QuerySpec>& keys, std::uint64_t seed,
                     double seconds, Tracer* tracer, Output* out) {
  ccs::service::MiningService service(handle, options);
  MixScript script(seed, keys.size());
  const ccs::ExecutorPool& pool = ccs::ProcessExecutorPool();
  double hit_runs = 0.0;
  double cold_runs = 0.0;
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < seconds * 1e3) {
    const MixScript::Next next = script.Take();
    if (next.kind != MixScript::Next::kMine) continue;
    const std::string line = keys[next.key].MineLine(1, true);
    const std::uint64_t leases_before = pool.created() + pool.reused();
    const Clock::time_point sent = Clock::now();
    std::string response;
    {
      Tracer::Scope span(tracer, "service", "MiningService::HandleLine");
      response = service.HandleLine(line);
    }
    const double ms = MsSince(sent);
    const double leases =
        static_cast<double>(pool.created() + pool.reused() - leases_before);
    if (response.find("memo=hit") != std::string::npos) {
      out->Add("service.handle_line_ms", ms);
      hit_runs += leases;
    } else {
      out->Add("service.handle_line_cold_ms", ms);
      cold_runs += leases;
      script.Answered(next.key);
    }
  }
  out->values["memo.hit_session_runs"] = hit_runs;
  out->values["service.cold_session_runs"] = cold_runs;
}

}  // namespace

bool RunDaemonMix(const Settings& settings, Tracer* tracer, Output* out) {
  const Dataset data =
      GenerateIbm("daemon_mix", 20000, 200, 2000, settings.seed);
  if (data.baskets_path.empty()) {
    std::fprintf(stderr, "cannot write the generated dataset\n");
    return false;
  }
  const std::vector<std::string> args = {
      "--baskets-file", data.baskets_path, "--catalog-file", data.catalog_path,
      "--threads",      "1",               "--pair-tier-mib", "8",
      "--max-concurrent", "2",             "--max-queued",    "8",
      "--memo-entries", "32"};
  Daemon daemon;
  tracer->set_enabled(settings.trace);
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0 && !daemon.Stop()) {
      std::fprintf(stderr, "ccsmined did not shut down cleanly\n");
      return false;
    }
    const double seconds = daemon.Start(settings.daemon_path, args, tracer);
    if (seconds < 0.0) {
      std::fprintf(stderr, "ccsmined did not answer PING\n");
      return false;
    }
    out->setup_s.push_back(seconds);
  }
  tracer->set_enabled(false);

  // 240 distinct keys cycle through a 32-entry memo, so every cold request
  // misses it; repeats draw from the last eight answered keys.
  const std::vector<QuerySpec> keys = ColdKeys(settings.seed, 240);
  MixScript script(settings.seed, keys.size());
  constexpr int kConnections = 4;
  std::vector<LoopResult> results(kConnections);
  const double cpu_start = ChildCpuSeconds(daemon.pid());
  const Clock::time_point start = Clock::now();
  {
    tracer->set_enabled(false);
    std::vector<std::thread> clients;
    for (int i = 0; i < kConnections; ++i) {
      clients.emplace_back(MixClient, std::cref(keys), &script, start,
                           settings.seconds, settings.trace, tracer,
                           &results[i]);
    }
    if (settings.trace) {
      while (MsSince(start) < settings.seconds * 1e3 / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      tracer->set_enabled(true);
    }
    for (std::thread& client : clients) client.join();
    tracer->set_enabled(false);
  }
  const double wall_s = MsSince(start) / 1e3;
  const double cpu_s = ChildCpuSeconds(daemon.pid()) - cpu_start;
  for (const LoopResult& result : results) {
    Merge(result.out, out);
    out->rate_ops += result.requests;
  }
  out->rate_seconds = wall_s;
  out->values["executor.cpu_util"] = cpu_s / (wall_s * 2.0);

  {
    ccs::client::Client client = MakeClient();
    const ccs::StatusOr<ccs::client::Response> stats = client.Request("STATS");
    std::string json;
    if (stats.ok()) {
      for (const std::string& line : stats.value().body) {
        if (line.rfind("STATS ", 0) == 0) json = line;
      }
    }
    const double hits = JsonNumber(json, "\"memo\":{\"hits\":");
    const double misses = JsonNumber(json, "\"misses\":");
    out->values["memo.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out->values["admission.queue_wait_ms"] =
        JsonNumber(json, "\"queue_wait_ms\":");
    out->values["admission.rejected"] = JsonNumber(json, "\"rejected\":");
  }
  out->values["peak_rss_mb"] = PeakRssMb(daemon.pid());
  if (!daemon.Stop()) {
    std::fprintf(stderr, "ccsmined did not shut down cleanly\n");
    return false;
  }

  // Reference answers, outside the timed loop: every key a MINE asked for,
  // mined in process over the same files.
  ccs::HandleOptions handle_options;
  handle_options.pair_tier_budget_mib = 8;
  double setup_seconds = 0.0;
  tracer->set_enabled(settings.trace);
  const ccs::DatabaseHandle handle = SetUp(data, handle_options, settings.trace,
                                           tracer, out, &setup_seconds);
  tracer->set_enabled(false);
  if (!handle.valid()) {
    std::fprintf(stderr, "cannot load the generated dataset\n");
    return false;
  }
  std::set<std::string> asked;
  for (const Op& op : out->ops) {
    if (!op.key.empty()) asked.insert(op.key);
  }
  const ccs::MiningSession session(handle);
  for (const std::string& key : asked) {
    const QuerySpec& spec = keys[std::strtoul(key.c_str() + 1, nullptr, 10)];
    const QueryRun run = RunQuery(session, spec, nullptr, out);
    if (run.ok) out->refs[key] = Digest(run.body);
  }

  if (settings.trace) {
    tracer->set_enabled(true);
    ccs::service::ServiceOptions options;
    options.engine.num_threads = 1;
    options.admission.max_concurrent = 2;
    options.admission.max_queued = 8;
    options.memo.max_entries = 32;
    ReplayInProcess(handle, options, keys, settings.seed,
                    std::min(3.0, settings.seconds / 4), tracer, out);
    tracer->set_enabled(false);
    out->values["socket.overhead_ms"] =
        Median(out->series["mine_memo_ms"]) -
        Median(out->series["service.handle_line_ms"]);
  }
  return true;
}

// -------------------------------------------------------------- stream_window

namespace {

// Steady state spans 20 batches (16 fine frames plus two 2-tick frames).
// Ticks that expire a 2-tick frame turn over about 15% of the window, the
// others about 5%, so a 10% gate sends the first kind to a full re-mine
// and the second to the delta path.
ccs::stream::StreamOptions WindowOptions() {
  ccs::stream::StreamOptions options;
  options.fine_frames = 16;
  options.frames_per_level = 2;
  options.levels = 2;
  options.max_delta_fraction = 0.1;
  return options;
}

constexpr const char* kStreamQuery =
    "valid_min where max(S.price) <= 75 with support = 0.05, maxsize = 3";
constexpr std::size_t kBatch = 200;
constexpr std::size_t kWarmupSteps = 24;

ccs::MiningRequest StreamRequest(const ccs::Query& query,
                                 const ccs::TransactionDatabase& db) {
  ccs::MiningRequest request;
  request.algorithm = query.DefaultAlgorithm();
  request.options = query.ResolveOptions(db);
  request.constraints = &query.constraints;
  return request;
}

}  // namespace

bool RunStreamWindow(const Settings& settings, Tracer* tracer, Output* out) {
  const Dataset data =
      GenerateIbm("stream_window", 40000, 100, 100, settings.seed, 20);
  if (data.baskets_path.empty()) {
    std::fprintf(stderr, "cannot write the generated dataset\n");
    return false;
  }
  const ccs::StatusOr<ccs::ItemCatalog> catalog =
      ccs::LoadCatalogFromFile(data.catalog_path);
  const ccs::StatusOr<ccs::TransactionDatabase> source =
      ccs::LoadBasketsFromFile(data.baskets_path, data.num_items);
  const ccs::StatusOr<ccs::Query> query = ccs::ParseQueryOrError(kStreamQuery);
  if (!catalog.ok() || !source.ok() || !query.ok()) {
    std::fprintf(stderr, "cannot load the generated dataset\n");
    return false;
  }
  const ccs::stream::StreamOptions window = WindowOptions();
  char fraction[32];
  std::snprintf(fraction, sizeof(fraction), "%g", window.max_delta_fraction);
  const std::vector<std::string> args = {
      "--baskets-file", data.baskets_path,
      "--catalog-file", data.catalog_path,
      "--threads", "1",
      "--stream",
      "--stream-fine-frames", std::to_string(window.fine_frames),
      "--stream-frames-per-level", std::to_string(window.frames_per_level),
      "--stream-levels", std::to_string(window.levels),
      "--stream-delta-fraction", fraction,
      "--stream-query", kStreamQuery};
  Daemon daemon;
  tracer->set_enabled(settings.trace);
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0 && !daemon.Stop()) {
      std::fprintf(stderr, "ccsmined did not shut down cleanly\n");
      return false;
    }
    const double seconds = daemon.Start(settings.daemon_path, args, tracer);
    if (seconds < 0.0) {
      std::fprintf(stderr, "ccsmined did not answer PING\n");
      return false;
    }
    out->setup_s.push_back(seconds);
  }
  tracer->set_enabled(false);

  // The window the daemon maintains, mirrored in process: `twin` for the
  // end-of-run batch check (and, traced, the window-maintenance time);
  // traced runs also re-evaluate through an in-process DeltaMiner.
  ccs::stream::StreamingDatabase twin(data.num_items, catalog.value(),
                                      window);
  ccs::stream::StreamingDatabase mirror(data.num_items, catalog.value(),
                                        window);
  ccs::HandleOptions handle_options;
  handle_options.pair_tier_budget_mib = 8;  // ccsmined's default
  ccs::stream::DeltaMiner miner(
      &mirror,
      [&query](const ccs::TransactionDatabase& db) {
        return StreamRequest(query.value(), db);
      },
      ccs::EngineOptions(), handle_options);

  const std::vector<ccs::Transaction>& baskets = source.value().transactions();
  std::size_t cursor = 0;
  std::set<std::string> answers;  // "SET <itemset>" lines, from ADD/DEL
  ccs::client::Client client = MakeClient();
  std::size_t delta_ticks = 0;
  std::size_t full_ticks = 0;
  std::size_t requests = 0;

  const auto request = [&](const std::string& line, const char* name,
                           double* ms) {
    const Clock::time_point sent = Clock::now();
    ccs::StatusOr<ccs::client::Response> response =
        ccs::Status(ccs::InternalError("not sent"));
    {
      Tracer::Scope span(tracer, "client", name);
      response = client.Request(line);
    }
    *ms = MsSince(sent);
    ++requests;
    return response;
  };

  // One step: APPEND a batch, TICK, a cold MINE on the new epoch, and the
  // same MINE again (a memo hit).
  const auto step = [&](bool timed, bool untraced_half) {
    std::vector<ccs::Transaction> batch;
    std::string line = "APPEND baskets=";
    for (std::size_t i = 0; i < kBatch; ++i) {
      const ccs::Transaction& basket = baskets[cursor++ % baskets.size()];
      if (i > 0) line += ';';
      for (std::size_t j = 0; j < basket.size(); ++j) {
        if (j > 0) line += ' ';
        line += std::to_string(basket[j]);
      }
      batch.push_back(basket);
    }
    const std::string suffix = untraced_half ? ".untraced" : "";
    double ms = 0.0;
    const auto appended = request(line, "APPEND", &ms);
    if (timed) {
      out->Add("append_ms" + suffix, ms);
      out->ops.push_back({"append", StatusName(appended.status()), "", ""});
    }
    const auto ticked = request("TICK", "TICK", &ms);
    if (timed) {
      out->Add("tick_ms" + suffix, ms);
      out->ops.push_back({"tick", StatusName(ticked.status()), "", ""});
    }
    if (!appended.ok() || !ticked.ok()) return false;
    const std::string& header = ticked.value().header;
    if (timed) {
      const bool full = header.find("mode=full") != std::string::npos;
      (full ? full_ticks : delta_ticks) += 1;
    }
    for (const std::string& change : ticked.value().body) {
      if (change.rfind("ADD ", 0) == 0) {
        answers.insert("SET " + change.substr(4));
      } else if (change.rfind("DEL ", 0) == 0) {
        answers.erase("SET " + change.substr(4));
      }
    }
    const std::string epoch =
        "epoch" + std::to_string(static_cast<long long>(
                      JsonNumber(header, "epoch=")));
    std::string expected;
    for (const std::string& set : answers) expected += set + "\n";
    out->refs[epoch] = Digest(expected);

    // The in-process mirror: window maintenance alone on `twin`, the whole
    // re-evaluation on `miner`.
    Clock::time_point start = Clock::now();
    for (const ccs::Transaction& basket : batch) {
      if (!twin.Append(basket).ok()) return false;
    }
    const double append_ms = MsSince(start);
    start = Clock::now();
    {
      Tracer::Scope span(tracer, "stream", "StreamingDatabase::Tick");
      twin.Tick();
    }
    const double window_ms = MsSince(start);
    if (settings.trace) {
      for (const ccs::Transaction& basket : batch) {
        if (!mirror.Append(basket).ok()) return false;
      }
      start = Clock::now();
      ccs::stream::AnswerDelta delta;
      {
        Tracer::Scope span(tracer, "stream", "DeltaMiner::Tick");
        delta = miner.Tick();
      }
      const double tick_ms = MsSince(start);
      if (tracer->enabled() && timed) {
        std::map<std::string, double> sums;
        AddRunMetrics(delta.result.metrics, &sums);
        AddDerived(&sums);
        sums["stream.window_tick_ms"] = window_ms;
        sums["stream.reeval_ms"] = tick_ms - window_ms;
        sums["stream.append_ms"] = append_ms;
        for (const auto& [name, value] : sums) out->Add(name, value);
      }
    }
    if (!timed) return true;

    const std::string mine =
        "MINE threads=1 query=" + std::string(kStreamQuery);
    for (const char* kind : {"mine_cold", "mine_memo"}) {
      const auto mined = request(mine, "MINE", &ms);
      Op op{kind, StatusName(mined.status()), epoch, ""};
      if (mined.ok()) {
        const bool hit =
            mined.value().header.find("memo=hit") != std::string::npos;
        op.kind = hit ? "mine_memo" : "mine_cold";
        op.digest = Digest(SetLines(mined.value().body, true));
      }
      out->Add(op.kind + "_ms" + suffix, ms);
      out->ops.push_back(op);
    }
    return true;
  };

  tracer->set_enabled(false);
  for (std::size_t i = 0; i < kWarmupSteps; ++i) {
    if (!step(false, false)) {
      std::fprintf(stderr, "warm-up step failed\n");
      return false;
    }
  }
  const double cpu_start = ChildCpuSeconds(daemon.pid());
  const Clock::time_point start = Clock::now();
  requests = 0;
  while (MsSince(start) < settings.seconds * 1e3) {
    const bool untraced_half =
        settings.trace && MsSince(start) < settings.seconds * 1e3 / 2;
    tracer->set_enabled(settings.trace && !untraced_half);
    if (!step(true, untraced_half)) break;
  }
  tracer->set_enabled(false);
  const double wall_s = MsSince(start) / 1e3;
  out->rate_ops = requests;
  out->rate_seconds = wall_s;
  out->values["executor.cpu_util"] =
      (ChildCpuSeconds(daemon.pid()) - cpu_start) / wall_s;
  out->values["stream.delta_ticks"] = static_cast<double>(delta_ticks);
  out->values["stream.full_ticks"] = static_cast<double>(full_ticks);
  out->values["peak_rss_mb"] = PeakRssMb(daemon.pid());
  if (!daemon.Stop()) {
    std::fprintf(stderr, "ccsmined did not shut down cleanly\n");
    return false;
  }

  // The accumulated answer set must equal a batch run over the window.
  const ccs::DatabaseHandle handle = ccs::DatabaseHandle::Create(
      twin.WindowSnapshot(), catalog.value(), handle_options);
  const ccs::MiningSession session(handle);
  const ccs::MiningResult batch =
      session.Run(StreamRequest(query.value(), handle.database()));
  std::string expected;
  for (const std::string& set : answers) expected += set + "\n";
  out->refs["final_window"] = Digest(expected);
  const bool completed = batch.termination == ccs::Termination::kCompleted;
  const std::string batch_sets =
      SetLines(Lines(RenderAnswers(batch.answers)), true);
  out->ops.push_back({"final_window", completed ? "ok" : "error",
                      "final_window", Digest(batch_sets)});
  return true;
}

}  // namespace perfbench
