#include "harness/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/algorithm.h"
#include "datagen/catalog_generator.h"
#include "datagen/ibm_generator.h"
#include "query/parser.h"
#include "txn/io.h"

namespace perfbench {

namespace {

thread_local std::vector<const Tracer::Span*> g_open_spans;

void AppendJsonString(const std::string& text, std::string* out) {
  *out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(double value, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void AddMetric(const std::string& name, double value,
               std::map<std::string, double>* sums) {
  // Engine timings are exported as "<name>_ns"; the benchmark reports ms.
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    (*sums)[name.substr(0, name.size() - 3) + "_ms"] += value / 1e6;
  } else {
    (*sums)[name] += value;
  }
}

}  // namespace

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
    if (g_open_spans.empty()) {
      span_.request = tracer_->next_request_++;
    } else {
      span_.parent = g_open_spans.back()->id;
      span_.request = g_open_spans.back()->request;
    }
  }
  g_open_spans.push_back(&span_);
  span_.start_ns = tracer_->NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  g_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

std::uint64_t Tracer::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children run on their parent's thread and nest inside it, so a parent's
  // self time is its duration minus its direct children's durations.
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (const Span& span : spans_) {
    const std::uint64_t total = span.end_ns - span.start_ns;
    const auto it = child_ns.find(span.id);
    const std::uint64_t children = it == child_ns.end() ? 0 : it->second;
    self_ms[span.layer] +=
        static_cast<double>(total > children ? total - children : 0) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string json = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) json += ",\n";
    json += "{\"name\":";
    AppendJsonString(span.name, &json);
    json += ",\"layer\":";
    AppendJsonString(span.layer, &json);
    json += ",\"id\":" + std::to_string(span.id);
    json += ",\"parent\":" + std::to_string(span.parent);
    json += ",\"request\":" + std::to_string(span.request);
    json += ",\"start_ns\":" + std::to_string(span.start_ns);
    json += ",\"end_ns\":" + std::to_string(span.end_ns) + "}";
  }
  json += "]\n";
  std::ofstream out(path);
  out << json;
  return static_cast<bool>(out);
}

std::string Output::ToJson() const {
  std::string json = "{\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (i > 0) json += ',';
    AppendNumber(setup_s[i], &json);
  }
  json += "],\"series\":{";
  bool first = true;
  for (const auto& [name, samples] : series) {
    if (!first) json += ',';
    first = false;
    AppendJsonString(name, &json);
    json += ":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) json += ',';
      AppendNumber(samples[i], &json);
    }
    json += ']';
  }
  json += "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values) {
    if (!first) json += ',';
    first = false;
    AppendJsonString(name, &json);
    json += ':';
    AppendNumber(value, &json);
  }
  json += "},\"rate\":{\"ops\":" + std::to_string(rate_ops) + ",\"seconds\":";
  AppendNumber(rate_seconds, &json);
  json += "},\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) json += ',';
    json += '[';
    AppendJsonString(ops[i].kind, &json);
    json += ',';
    AppendJsonString(ops[i].status, &json);
    json += ',';
    AppendJsonString(ops[i].key, &json);
    json += ',';
    AppendJsonString(ops[i].digest, &json);
    json += ']';
  }
  json += "],\"refs\":{";
  first = true;
  for (const auto& [key, digest] : refs) {
    if (!first) json += ',';
    first = false;
    AppendJsonString(key, &json);
    json += ':';
    AppendJsonString(digest, &json);
  }
  json += "},\"notes\":{";
  first = true;
  for (const auto& [key, note] : notes) {
    if (!first) json += ',';
    first = false;
    AppendJsonString(key, &json);
    json += ':';
    AppendJsonString(note, &json);
  }
  json += "}}";
  return json;
}

std::string Digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string RenderAnswers(const std::vector<ccs::Itemset>& answers) {
  std::string body;
  for (const ccs::Itemset& s : answers) {
    body += "SET ";
    body += s.ToString();
    body += '\n';
  }
  return body;
}

Dataset GenerateIbm(const std::string& name, std::size_t baskets,
                    std::size_t items, std::size_t patterns,
                    std::uint64_t seed, std::size_t blocks) {
  ccs::TransactionDatabase db(items);
  for (std::size_t block = 0; block < blocks; ++block) {
    ccs::IbmGeneratorConfig config;
    config.num_transactions = baskets / blocks;
    config.num_items = items;
    config.avg_transaction_size = 10.0;
    config.avg_pattern_size = 4.0;
    config.num_patterns = patterns;
    config.seed = seed * 1000003 + block;
    const ccs::TransactionDatabase part = ccs::IbmGenerator(config).Generate();
    for (const ccs::Transaction& basket : part.transactions()) db.Add(basket);
  }
  db.Finalize();
  Dataset data;
  data.baskets_path = name + ".baskets";
  data.catalog_path = name + ".catalog";
  data.num_items = items;
  if (!ccs::WriteBasketsToFile(db, data.baskets_path) ||
      !ccs::WriteCatalogToFile(ccs::MakeLinearPriceCatalog(items),
                               data.catalog_path)) {
    data.baskets_path.clear();
  }
  return data;
}

ccs::DatabaseHandle SetUp(const Dataset& data,
                          const ccs::HandleOptions& options,
                          bool time_finalize, Tracer* tracer, Output* out,
                          double* seconds) {
  Tracer::Scope setup_span(tracer, "bench", "setup");
  const Clock::time_point start = Clock::now();
  ccs::StatusOr<ccs::ItemCatalog> catalog = ccs::InternalError("not loaded");
  ccs::StatusOr<ccs::TransactionDatabase> db = ccs::InternalError("not loaded");
  {
    Tracer::Scope span(tracer, "txn", "LoadBasketsFromFile");
    catalog = ccs::LoadCatalogFromFile(data.catalog_path);
    if (!catalog.ok()) return {};
    db = ccs::LoadBasketsFromFile(data.baskets_path,
                                  catalog.value().num_items());
    if (!db.ok()) return {};
  }
  const double load_ms = MsSince(start);
  if (time_finalize) {
    ccs::TransactionDatabase copy(db.value().num_items());
    for (const ccs::Transaction& basket : db.value().transactions()) {
      copy.Add(basket);
    }
    const Clock::time_point finalize_start = Clock::now();
    {
      Tracer::Scope span(tracer, "txn", "FinalizeOrError");
      if (!copy.FinalizeOrError().ok()) return {};
    }
    out->Add("txn.finalize_ms", MsSince(finalize_start));
  }
  const Clock::time_point create_start = Clock::now();
  ccs::DatabaseHandle handle;
  {
    Tracer::Scope span(tracer, "core", "DatabaseHandle::Create");
    handle = ccs::DatabaseHandle::Create(std::move(db).value(),
                                         std::move(catalog).value(), options);
  }
  const double create_ms = MsSince(create_start);
  out->Add("txn.load_ms", load_ms);
  out->Add("handle.create_ms", create_ms);
  *seconds = (load_ms + create_ms) / 1e3;
  return handle;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

std::string QuerySpec::MineLine(std::size_t threads, bool metrics) const {
  std::string line = "MINE threads=" + std::to_string(threads);
  const std::pair<const char*, const std::string*> fields[] = {
      {"algorithm", &algorithm}, {"alpha", &alpha},       {"support", &support},
      {"cell", &cell},           {"max_size", &max_size}};
  for (const auto& [name, value] : fields) {
    if (!value->empty()) line += std::string(" ") + name + "=" + *value;
  }
  if (metrics) line += " metrics=1";
  return line + " query=" + query;
}

ccs::StatusOr<ccs::MiningRequest> BuildRequest(
    const QuerySpec& spec, const ccs::TransactionDatabase& db,
    ccs::Query* query, Tracer* tracer, Output* out) {
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope span(tracer, "query", "ParseQueryOrError");
    ccs::StatusOr<ccs::Query> parsed = ccs::ParseQueryOrError(spec.query);
    if (parsed.ok()) {
      *query = std::move(parsed).value();
    } else {
      ccs::StatusOr<ccs::ConstraintSet> constraints =
          ccs::ParseConstraintsOrError(spec.query);
      if (!constraints.ok()) return parsed.status();
      *query = ccs::Query();
      query->constraints = std::move(constraints).value();
    }
  }
  out->Add("query.parse_us", MsSince(start) * 1e3);
  if (!spec.alpha.empty()) {
    query->significance = std::strtod(spec.alpha.c_str(), nullptr);
  }
  if (!spec.support.empty()) {
    query->support_fraction = std::strtod(spec.support.c_str(), nullptr);
  }
  if (!spec.cell.empty()) {
    query->min_cell_fraction = std::strtod(spec.cell.c_str(), nullptr);
  }
  if (!spec.max_size.empty()) {
    query->max_set_size = std::strtoul(spec.max_size.c_str(), nullptr, 10);
  }
  ccs::MiningRequest request;
  request.algorithm = query->DefaultAlgorithm();
  if (!spec.algorithm.empty()) {
    const std::optional<ccs::Algorithm> named =
        ccs::ParseAlgorithmName(spec.algorithm);
    if (!named.has_value()) return ccs::InvalidArgumentError(spec.algorithm);
    request.algorithm = *named;
  }
  request.options = query->ResolveOptions(db);
  request.constraints = &query->constraints;
  return request;
}

QueryRun RunQuery(const ccs::MiningSession& session, const QuerySpec& spec,
                  Tracer* tracer, Output* out) {
  QueryRun run;
  ccs::Query query;
  const ccs::StatusOr<ccs::MiningRequest> request =
      BuildRequest(spec, session.handle().database(), &query, tracer, out);
  if (!request.ok()) return run;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  ccs::MiningResult result;
  {
    Tracer::Scope span(tracer, "core", "MiningSession::Run");
    result = session.Run(request.value());
  }
  run.run_ms = MsSince(start);
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  out->Add("session.run_ms", run.run_ms);
  const Clock::time_point render_start = Clock::now();
  {
    Tracer::Scope span(tracer, "render", "RenderAnswers");
    run.body = RenderAnswers(result.answers);
  }
  out->Add("render_ms", MsSince(render_start));
  out->Add("render.bytes", static_cast<double>(run.body.size()));
  run.ok = result.termination == ccs::Termination::kCompleted;
  run.metrics = std::move(result.metrics);
  return run;
}

void AddRunMetrics(const ccs::MetricsSnapshot& metrics,
                   std::map<std::string, double>* sums) {
  for (const ccs::MetricScalar& scalar : metrics.scalars) {
    AddMetric(scalar.name, static_cast<double>(scalar.value), sums);
  }
}

void AddMetricsJson(const std::string& json,
                    std::map<std::string, double>* sums) {
  static const std::string kName = "\"name\": \"";
  static const std::string kValue = "\"value\": ";
  std::size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    pos += kName.size();
    const std::size_t name_end = json.find('"', pos);
    if (name_end == std::string::npos) return;
    const std::string name = json.substr(pos, name_end - pos);
    const std::size_t next = json.find(kName, name_end);
    const std::size_t value = json.find(kValue, name_end);
    if (value != std::string::npos && value < next) {
      const char* number = json.c_str() + value + kValue.size();
      AddMetric(name, std::strtod(number, nullptr), sums);
    }
    pos = name_end;
  }
}

void AddDerived(std::map<std::string, double>* sums) {
  std::map<std::string, double>& m = *sums;
  if (m["phase.ct_build_ms"] > 0.0) {
    m["ct.tables_per_s"] =
        m["ct.tables_built"] / (m["phase.ct_build_ms"] / 1e3);
  }
  if (m["ct_cache.lookups"] > 0.0) {
    m["ct_cache.hit_ratio"] = m["ct_cache.hits"] / m["ct_cache.lookups"];
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb(int pid) {
  const std::string process = pid == 0 ? "self" : std::to_string(pid);
  const std::string path = "/proc/" + process + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ChildCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
