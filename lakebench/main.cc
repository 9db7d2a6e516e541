// lakebench: one mixed lake workload driven through lakekit's public API.
//
//   lakebench --workload explore_warm|explore_cold|maintain --seed N
//             --seconds S --trace 0|1 --lake-dir DIR [--trace-dir DIR]
//             [--corrupt query|josie|catalog|lakehouse|budget]
//
// Builds a generated lake under --lake-dir, runs one closed-loop client for
// --seconds after a warm-up, checks every output against answers computed
// here with plain loops, and prints one JSON object as the last line of
// stdout. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it records
// spans around each layer's calls and reports the per-layer metrics.
// --corrupt falsifies one expected value of a check family, as a negative
// control: the run must then report correct=false. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "core/data_lake.h"
#include "discovery/aurum.h"
#include "discovery/corpus.h"
#include "discovery/josie.h"
#include "ingest/profiler.h"
#include "json/parser.h"
#include "lake.h"
#include "lakehouse/delta_table.h"
#include "query/admission.h"
#include "query/federation.h"
#include "query/operators.h"
#include "query/sql.h"
#include "query/table_cache.h"
#include "query/zone_map.h"
#include "storage/object_store.h"
#include "trace.h"

namespace lakebench {
namespace {

namespace lk = lakekit;
using lk::Result;
using lk::Status;
using lk::table::Table;

constexpr double kMiB = 1024.0 * 1024.0;

// ----------------------------------------------------------- the workloads

/// The operations a round is made of. Query, lookup and write kinds are
/// the three reported classes; upkeep (checkpoints, time-travel reads,
/// index rebuilds) is triggered by fixed counters and counted in
/// `attempted` and ops_per_s only.
enum class Op {
  kQuery,
  kJosie,
  kAurum,
  kUnion,
  kSearch,
  kIngest,
  kAppend,
  kPut,
};
enum Class { kQueryClass = 0, kLookupClass = 1, kWriteClass = 2 };

Class ClassOf(Op op) {
  switch (op) {
    case Op::kQuery:
      return kQueryClass;
    case Op::kJosie:
    case Op::kAurum:
    case Op::kUnion:
    case Op::kSearch:
      return kLookupClass;
    case Op::kIngest:
    case Op::kAppend:
    case Op::kPut:
      return kWriteClass;
  }
  return kQueryClass;
}

struct Workload {
  std::string name;
  QueryLakeOptions query_lake;
  DiscLakeOptions disc;
  size_t cache_bytes = 0;
  /// Zipf exponent of fact popularity; 0 is uniform.
  double zipf = 0;
  /// Put overwrites replace queried facts (else raw side objects).
  bool overwrite_queried = false;
  /// The operation kinds of one round, with counts.
  std::vector<std::pair<Op, size_t>> mix;
  /// The client rebuilds the discovery indexes every this many rounds,
  /// about every 0.7 s.
  size_t rebuild_every_rounds = 0;
  /// Untimed rounds run before the window, so that the window measures the
  /// steady state rather than the first seconds of a fresh process.
  size_t warmup_rounds = 0;
};

/// Engine and write sizes shared by every workload. The client runs on the
/// main thread; with the pool's one worker (LAKEKIT_THREADS and
/// QueryOptions::pool), the benchmark runs two threads.
constexpr size_t kPoolThreads = 1;
constexpr size_t kCacheShards = 4;
constexpr size_t kMaxConcurrentQueries = 2;
constexpr size_t kIngestRows = 40;
constexpr size_t kAppendRows = 32;
/// Query shapes are drawn 2 scan : 6 join : 2 top-N : 6 full aggregate
/// (indexed by Shape). With the two cheap shapes a quarter of the queries,
/// the class median falls inside the expensive shapes' distribution; with
/// equal shares it fell in the gap between cheap and expensive, where it
/// moved 6 % for each 1 % of queries that changed sides.
constexpr size_t kShapeWeights[4] = {2, 6, 2, 6};
constexpr size_t kShapeDraws = 16;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "explore_warm" || name == "explore_cold") {
    w.disc.num_tables = 80;
    w.disc.rows = 60;
    w.disc.planted_pairs = 16;
    w.disc.keywords = 8;
    // Class percentiles fall inside one kind's distribution, not in the
    // gap between a fast and a slow kind: JOSIE and Aurum lookups are 4/5
    // of lookups, so the lookup median is theirs, and the union lookup, the
    // slowest, is a tenth, so the lookup p95 is its median; appends are 3/4
    // of writes.
    w.mix = {{Op::kQuery, 16}, {Op::kJosie, 6}, {Op::kAurum, 2},
             {Op::kUnion, 1},  {Op::kSearch, 1}, {Op::kPut, 1},
             {Op::kAppend, 3}};
    w.query_lake.fact_rows = 10000;
    if (name == "explore_warm") {
      // Decoded facts + dims (19.8 MiB) take 41 % of the cache.
      w.query_lake.num_facts = 6;
      w.cache_bytes = 48u << 20;
      w.rebuild_every_rounds = 20;
      // glibc's malloc adapts its mmap and trim thresholds to the sizes
      // freed so far, and the engine's copies of whole cached tables drive
      // it: a fresh process starts at 50 to 250 page faults an operation,
      // by a path that differs from seed to seed, and settles at about 350
      // within its first few thousand queries. These rounds (4,800
      // queries) take it to that steady state before the window opens.
      w.warmup_rounds = 300;
    } else {
      // Working set 3.5x the cache (49.2 MiB decoded: 3.27 MiB a fact,
      // 0.19 MiB both dimensions), Zipf-skewed, with overwrites of the
      // queried facts.
      w.query_lake.num_facts = 15;
      w.cache_bytes = 14u << 20;
      w.zipf = 0.6;
      w.overwrite_queried = true;
      w.rebuild_every_rounds = 7;
      w.warmup_rounds = 20;
    }
  } else if (name == "maintain") {
    w.query_lake.num_facts = 2;
    w.query_lake.fact_rows = 5000;
    w.query_lake.num_dims = 1;
    w.cache_bytes = 32u << 20;
    w.disc.num_tables = 240;
    w.disc.rows = 40;
    w.disc.planted_pairs = 40;
    w.disc.keywords = 12;
    // Overwrites go to side objects: with two small facts, overwriting them
    // would split the few queries evenly between cache hits and misses and
    // put the query median in the gap between the two.
    // Lookups as on the explore workloads; the ingest, the slowest write,
    // is a tenth of the writes, so the write p95 is its median.
    w.mix = {{Op::kQuery, 2},  {Op::kJosie, 6},  {Op::kAurum, 2},
             {Op::kUnion, 1},  {Op::kSearch, 1}, {Op::kIngest, 1},
             {Op::kAppend, 8}, {Op::kPut, 1}};
    w.rebuild_every_rounds = 70;
    w.warmup_rounds = 20;
  } else {
    w.name.clear();
  }
  return w;
}

/// One round's operation order: every kind spread evenly (a fixed
/// interleave, the same for every seed and round).
std::vector<Op> RoundOrder(const Workload& w) {
  std::vector<std::pair<double, Op>> slots;
  for (const auto& [op, count] : w.mix) {
    for (size_t i = 0; i < count; ++i) {
      slots.emplace_back((static_cast<double>(i) + 0.5) /
                             static_cast<double>(count) +
                             1e-6 * static_cast<double>(slots.size()),
                         op);
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Op> order;
  for (const auto& slot : slots) order.push_back(slot.second);
  return order;
}

// ------------------------------------------------------------- the checks

/// Counts check failures; the first few are printed to stderr.
class Checks {
 public:
  void Fail(const std::string& family, const std::string& what) {
    if (++failures_ <= 5) {
      std::fprintf(stderr, "lakebench: %s check failed: %s\n", family.c_str(),
                   what.c_str());
    }
  }
  /// Fails when `ok` is false; `describe` builds the message only then,
  /// so passing checks cost no string work in the measured loop.
  template <typename Describe>
  void Expect(bool ok, const std::string& family, Describe describe) {
    if (!ok) Fail(family, describe());
  }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// How fast the host runs the benchmark right now: the best of five timings
/// of a fixed piece of work that uses nothing of lakekit (generating and
/// sorting 32,768 random integers). This host runs everything up to half
/// again slower for minutes at a time, and every figure of the benchmark
/// moves with it; times measured in a slice are scaled by this reading to
/// the speed kReferenceNs stands for.
int64_t ReferenceNs() {
  std::vector<uint64_t> values(1 << 15);
  int64_t best = INT64_MAX;
  uint64_t sink = 0;
  for (uint64_t rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    Rng64 rng(rep + 1);
    for (uint64_t& v : values) v = rng.Next();
    std::sort(values.begin(), values.end());
    sink += values[values.size() / 2];
    best = std::min(best, NowNs() - t0);
  }
  // Keeps the work from being optimized away.
  static std::atomic<uint64_t> keep;
  keep.store(sink, std::memory_order_relaxed);
  return best;
}

// --------------------------------------------------------- per-run state

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string lake_dir;
  std::string trace_dir;
  std::string corrupt;
};

/// Counters the traced run turns into per-layer metrics, for the measured
/// window.
struct LayerCounts {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> rows_shipped{0};
  std::atomic<uint64_t> join_input_rows{0};
  std::atomic<uint64_t> replayed{0};
  /// Probe-engine time minus the replayed operators' time, summed.
  std::atomic<int64_t> engine_outside_ops_ns{0};
  std::atomic<uint64_t> morsels_total{0};
  std::atomic<uint64_t> morsels_pruned{0};
  std::atomic<uint64_t> rows_in{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> josie_lookups{0};
  std::atomic<uint64_t> josie_postings{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> commits_since_checkpoint{0};
};

/// A client's lakehouse table: appends with a model of every version's
/// row sum, rotated to a fresh table every kAppendsPerTable commits so the
/// cost of a read stays bounded however long the run.
struct DeltaState {
  std::optional<lk::lakehouse::DeltaTable> table;
  std::vector<int64_t> prefix;  // prefix[v]: sum of `v` column at version v
  size_t generation = 0;
  size_t since_checkpoint = 0;
};

constexpr size_t kAppendsPerTable = 48;
constexpr size_t kIngestsPerLanding = 48;
/// The window is cut into slices this long (at round boundaries); each
/// timing reported is the median over the slices of the slice's figure.
constexpr int64_t kSliceNs = 2'000'000'000;
/// ReferenceNs() on the host of README.md's figures when it ran at its
/// usual speed; timings are reported as if the host ran at that speed.
constexpr double kReferenceNs = 2.0e6;
constexpr size_t kJoinableTopK = 5;
constexpr size_t kCheckpointEvery = 8;

class Bench {
 public:
  Bench(Args args, Workload w, int64_t start_ns)
      : args_(std::move(args)), w_(std::move(w)), start_ns_(start_ns) {}

  /// Builds, ingests and warms the lake; returns false on a setup error.
  bool Setup();
  /// Runs the client through the warm-up rounds, then the measured window.
  void Run();
  /// Final checks and the result line; returns the exit code.
  int Report();

 private:
  /// The operations of one slice of the window: the rounds that started
  /// in one kSliceNs-long stretch of it, and the host's speed just before.
  struct Slice {
    Samples samples[3];
    uint64_t ops = 0;
    int64_t ns = 0;
    int64_t reference_ns = 0;  // ReferenceNs() at the slice's start
    /// Scales a time measured in this slice to the reference speed.
    double speed() const {
      return kReferenceNs / static_cast<double>(reference_ns);
    }
  };
  struct Client {
    explicit Client(uint64_t seed) : rng(seed), slices(1) {}
    Rng64 rng;
    std::vector<Slice> slices;  // the last one is open
    uint64_t failed = 0;
    DeltaState delta;
    uint64_t queries = 0;
    uint64_t seq = 0;  // operation ids, for the traced run's spans
  };

  /// Runs whole rounds until `end_ns` or `max_rounds`, whichever is first.
  void RunClient(Client* c, int64_t end_ns, size_t max_rounds);
  void RunOp(Client* c, Op op, uint64_t op_id);
  void DoQuery(Client* c);
  void DoJosie(Client* c);
  void DoAurum(Client* c);
  void DoUnion(Client* c);
  void DoSearch(Client* c);
  void DoIngest(Client* c);
  void DoAppend(Client* c);
  void DoPut(Client* c);
  bool NewDeltaTable(Client* c);
  void LakehouseUpkeep(Client* c);
  bool Ingest(lk::core::DataLake& lake, const DiscTable& t);
  bool OpenLanding();
  Status BuildIndexes();
  void ReplayQuery(const std::string& sql);
  void Upkeep(Client* c, const std::function<bool()>& op);
  double DiscoveryRecall();
  double IndexBuildMedianS(double speed);
  void Record(Client* c, Op op, int64_t t0, bool ok, const std::string& what);
  Result<Table> RunQuery(const std::string& sql);

  Args args_;
  Workload w_;
  int64_t start_ns_;
  Checks checks_;

  std::optional<lk::core::DataLake> lake_;
  /// maintain's ingest target: a second facade, replaced by a fresh one
  /// every kIngestsPerLanding ingests, so an ingest's cost stays the same
  /// however long the run while lake_ keeps its discovery tables.
  std::optional<lk::core::DataLake> landing_;
  size_t landings_ = 0;
  /// The query tier (facts, dimensions, side objects) and the lakehouse
  /// live on memory-backed filesystems; see README.md, "Flush policy".
  MemFs query_fs_;
  MemFs lakehouse_fs_;
  std::optional<lk::storage::Polystore> query_store_;
  std::optional<lk::storage::ObjectStore> delta_store_;
  std::optional<lk::catalog::Catalog> shadow_catalog_;
  std::unique_ptr<lk::MemoryBudget> budget_;
  std::unique_ptr<lk::query::TableCache> cache_;
  std::unique_ptr<lk::query::AdmissionController> admission_;
  std::unique_ptr<TracingSource> tracing_source_;
  std::unique_ptr<lk::query::FederatedEngine> engine_;
  /// Traced run only: the same engine configuration over the same cache,
  /// without admission, for ReplayQuery's engine timing.
  std::unique_ptr<lk::query::FederatedEngine> probe_engine_;

  QueryLake qlake_;
  std::vector<DiscTable> disc_;
  std::vector<size_t> planted_;  // disc indexes with a partner
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<std::string> side_keys_;

  /// Overwrites so far of each fact (explore_cold) or of its side object:
  /// version n holds content n % 2.
  std::vector<uint64_t> version_;

  /// Catalog model: keyword -> datasets tagged with it; name -> rows.
  std::map<std::string, std::set<std::string>> tagged_;
  std::map<std::string, size_t> records_;
  size_t next_ingest_ = 0;

  std::optional<lk::discovery::Corpus> replica_corpus_;
  std::optional<lk::discovery::JosieFinder> replica_josie_;

  uint64_t engine_queries_ = 0;
  /// Live user payload: the current version of every object, every
  /// ingested file and every appended row (as CSV).
  int64_t input_bytes_ = 0;
  int64_t run_input_bytes_ = 0;
  int64_t setup_index_build_ns_ = 0;
  int64_t setup_ingest_ns_ = 0;
  /// The window's rebuilds, in ns scaled to the reference speed.
  std::vector<double> index_builds_;
  int64_t setup_end_ns_ = 0;
  int64_t run_start_ns_ = 0;
  int64_t run_end_ns_ = 0;
  std::unique_ptr<Client> client_;
  std::vector<Op> round_;

  LayerCounts counts_;
  lk::query::AdmissionStats admission_at_start_;
  lk::LruCacheStats cache_at_start_;
  uint64_t syncs_at_start_ = 0;
  uint64_t publishes_at_start_ = 0;
  uint64_t bytes_read_at_start_ = 0;
};

// ------------------------------------------------------------------ setup

bool Bench::Ingest(lk::core::DataLake& lake, const DiscTable& t) {
  lk::core::IngestOptions options;
  options.tags = {t.tag};
  const bool json = t.filename.size() > 5 &&
                    t.filename.compare(t.filename.size() - 5, 5, ".json") == 0;
  if (Tracer::enabled()) {
    // Replays of what IngestFile does inside, timed on their own.
    {
      Span span("ingest.profile");
      Result<lk::ingest::FileProfile> p = lk::ingest::Profiler::ProfileFile(
          t.filename, "landing/" + t.name + "/" + t.filename, t.content);
      (void)p;  // ignore: timed replay; IngestFile below is what is checked.
    }
    if (json) {
      Span span("decode.json");
      Result<lk::json::Value> doc = lk::json::Parse(t.content);
      if (doc.ok()) {
        Result<Table> table = Table::FromJson(t.name, *doc);
        (void)table;  // ignore: timed replay of the document decode.
      }
    }
  }
  Result<lk::catalog::DatasetEntry> entry = [&] {
    Span span("ingest.file");
    return lake.IngestFile(t.name, t.filename, t.content, options);
  }();
  if (!entry.ok()) {
    std::fprintf(stderr, "lakebench: ingest %s: %s\n", t.name.c_str(),
                 entry.status().ToString().c_str());
    return false;
  }
  if (Tracer::enabled()) {
    Span span("catalog.register");
    Status s = shadow_catalog_->Register(*entry);
    (void)s;  // ignore: timed replay into the shadow catalog.
  }
  return true;
}

bool Bench::OpenLanding() {
  landing_.reset();
  const std::string dir =
      args_.lake_dir + "/landing_" + std::to_string(landings_++);
  Result<lk::core::DataLake> lake = lk::core::DataLake::Open(dir);
  if (!lake.ok()) {
    checks_.Fail("operation", "open " + dir + ": " + lake.status().ToString());
    return false;
  }
  landing_.emplace(std::move(*lake));
  return true;
}

Status Bench::BuildIndexes() {
  Status s = lake_->BuildDiscoveryIndexes();
  if (!s.ok() || !Tracer::enabled()) return s;
  // The traced run rebuilds the same corpus and indexes from their public
  // parts to time each on its own, and keeps the JOSIE index to read its
  // postings counter.
  replica_josie_.reset();
  {
    Span span("discovery.corpus_build");
    replica_corpus_.emplace();
    for (const std::string& name : lake_->polystore().DatasetNames()) {
      Result<Table> t = lake_->polystore().ReadAsTable(name);
      if (!t.ok()) continue;
      t->set_name(name);
      LAKEKIT_RETURN_IF_ERROR(
          replica_corpus_->AddTable(std::move(*t)).status());
    }
  }
  {
    Span span("discovery.aurum_build");
    lk::discovery::AurumFinder aurum(&*replica_corpus_);
    LAKEKIT_RETURN_IF_ERROR(aurum.Build());
  }
  {
    Span span("discovery.josie_build");
    replica_josie_.emplace(&*replica_corpus_);
    replica_josie_->Build();
  }
  return Status::OK();
}

bool Bench::NewDeltaTable(Client* c) {
  lk::table::Schema schema;
  schema.AddField(lk::table::Field{"k", lk::table::DataType::kInt64, false});
  schema.AddField(lk::table::Field{"v", lk::table::DataType::kInt64, false});
  const std::string name = "delta_" + std::to_string(c->delta.generation++);
  Result<lk::lakehouse::DeltaTable> t =
      lk::lakehouse::DeltaTable::Create(&*delta_store_, name, schema);
  if (!t.ok()) {
    checks_.Fail("lakehouse", "create " + name + ": " + t.status().ToString());
    return false;
  }
  c->delta.table.emplace(std::move(*t));
  c->delta.prefix.assign(1, args_.corrupt == "lakehouse" ? 1 : 0);
  c->delta.since_checkpoint = 0;
  return true;
}

bool Bench::Setup() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(args_.lake_dir, ec);
  fs::create_directories(args_.lake_dir, ec);
  if (ec) {
    std::fprintf(stderr, "lakebench: cannot create %s\n",
                 args_.lake_dir.c_str());
    return false;
  }
  if (args_.trace) Tracer::Enable();

  Result<lk::core::DataLake> lake = lk::core::DataLake::Open(args_.lake_dir);
  if (!lake.ok()) {
    std::fprintf(stderr, "lakebench: open: %s\n",
                 lake.status().ToString().c_str());
    return false;
  }
  lake_.emplace(std::move(*lake));
  Result<lk::storage::ObjectStore> store = lk::storage::ObjectStore::Open(
      args_.lake_dir + "/lakehouse", &lakehouse_fs_);
  if (!store.ok()) return false;
  delta_store_.emplace(std::move(*store));
  Result<lk::storage::Polystore> query_store = lk::storage::Polystore::Open(
      args_.lake_dir + "/query", {}, &query_fs_);
  if (!query_store.ok()) return false;
  query_store_.emplace(std::move(*query_store));
  if (args_.trace) {
    Result<lk::catalog::Catalog> shadow =
        lk::catalog::Catalog::Open(args_.lake_dir + "/trace_catalog");
    if (!shadow.ok()) return false;
    shadow_catalog_.emplace(std::move(*shadow));
  }

  // The query tier: object-backed CSV facts and dimensions.
  qlake_ = MakeQueryLake(args_.seed, w_.query_lake);
  if (args_.corrupt == "query") {
    for (FactDataset& f : qlake_.facts) {
      for (size_t q = 0; q < f.queries.size(); ++q) {
        if (f.queries[q].shape == Shape::kFullAgg) {
          f.expected[0][q].sum += 1;
          f.expected[1][q].sum += 1;
        }
      }
    }
  }
  for (const DimTable& d : qlake_.dims) {
    if (!query_store_->StoreObject(d.name, d.key, d.csv).ok()) return false;
    input_bytes_ += static_cast<int64_t>(d.csv.size());
  }
  for (const FactDataset& f : qlake_.facts) {
    if (!query_store_->StoreObject(f.name, f.key, f.csv[0]).ok()) {
      return false;
    }
    input_bytes_ += static_cast<int64_t>(f.csv[0].size());
    if (!w_.overwrite_queried) {
      // Raw objects of the same size that explore_warm's writes overwrite;
      // never registered as datasets, never queried.
      side_keys_.push_back("side/" + f.name + ".csv");
      if (!query_store_->objects().Put(side_keys_.back(), f.csv[0]).ok()) {
        return false;
      }
      input_bytes_ += static_cast<int64_t>(f.csv[0].size());
    }
  }
  const size_t nf = qlake_.facts.size();
  version_.assign(nf, 0);
  if (w_.zipf > 0) zipf_ = std::make_unique<ZipfSampler>(nf, w_.zipf);

  // The discovery tier and the catalog: small tables through IngestFile.
  // The ingests write the facade's catalog WAL, which fsyncs on the
  // checkout's disk; they are timed apart from set-up (README.md, "Flush
  // policy"), so disk latency stays out of setup_s.
  disc_ = MakeDiscTables(args_.seed, w_.disc);
  for (size_t i = 0; i < disc_.size(); ++i) {
    const int64_t ingest_start = NowNs();
    const bool ingested = Ingest(*lake_, disc_[i]);
    setup_ingest_ns_ += NowNs() - ingest_start;
    if (!ingested) return false;
    tagged_[disc_[i].tag].insert(disc_[i].name);
    records_[disc_[i].name] =
        disc_[i].rows + (args_.corrupt == "catalog" ? 1 : 0);
    input_bytes_ += static_cast<int64_t>(disc_[i].content.size());
    if (disc_[i].partner >= 0) planted_.push_back(i);
  }

  // Engine: cache, process budget and admission, all sized so that no
  // operation fails. The budget leaves room for the cache plus in-flight
  // queries' decoded tables and operator state.
  const size_t headroom = 96u << 20;
  budget_ = std::make_unique<lk::MemoryBudget>(w_.cache_bytes + headroom);
  lk::query::TableCacheOptions cache_options;
  cache_options.capacity_bytes = w_.cache_bytes;
  cache_options.shards = kCacheShards;
  cache_options.process_budget = budget_.get();
  cache_ = std::make_unique<lk::query::TableCache>(cache_options);
  lk::query::AdmissionOptions admission_options;
  admission_options.max_concurrent = kMaxConcurrentQueries;
  admission_options.max_queue_depth = 1;
  admission_ = std::make_unique<lk::query::AdmissionController>(
      admission_options);
  lk::query::FederatedEngineOptions engine_options;
  engine_options.table_cache = cache_.get();
  engine_options.memory_budget = budget_.get();
  engine_options.admission = admission_.get();
  if (args_.trace) {
    tracing_source_ = std::make_unique<TracingSource>(&*query_store_);
    engine_ = std::make_unique<lk::query::FederatedEngine>(
        tracing_source_.get(), engine_options);
    lk::query::FederatedEngineOptions probe_options = engine_options;
    probe_options.admission = nullptr;
    probe_engine_ = std::make_unique<lk::query::FederatedEngine>(
        &*query_store_, probe_options);
  } else {
    engine_ = std::make_unique<lk::query::FederatedEngine>(&*query_store_,
                                                           engine_options);
  }

  // The first index build is timed apart from set-up.
  const int64_t build_start = NowNs();
  if (Status s = BuildIndexes(); !s.ok()) {
    std::fprintf(stderr, "lakebench: index build: %s\n", s.ToString().c_str());
    return false;
  }
  setup_index_build_ns_ = NowNs() - build_start;

  client_ = std::make_unique<Client>(StreamSeed(args_.seed, 7000));
  if (!NewDeltaTable(client_.get())) return false;

  // Warm-up: every query of every fact once, which fills the cache to its
  // steady state (all facts on explore_warm, the cache's capacity on
  // explore_cold).
  for (const FactDataset& f : qlake_.facts) {
    for (size_t q = 0; q < f.queries.size(); ++q) {
      Result<Table> r = RunQuery(f.queries[q].sql);
      if (!r.ok()) {
        std::fprintf(stderr, "lakebench: warm-up %s: %s\n",
                     f.queries[q].sql.c_str(), r.status().ToString().c_str());
        return false;
      }
      const bool ok =
          CheckQueryResult(f.queries[q], f.expected[0][q], *r).empty();
      checks_.Expect(ok, "query",
                     [&] { return "warm-up " + f.queries[q].sql; });
    }
  }
  round_ = RoundOrder(w_);
  setup_end_ns_ = NowNs();
  return true;
}

// ------------------------------------------------------------ operations

Result<Table> Bench::RunQuery(const std::string& sql) {
  lk::query::FederationStats stats;
  lk::query::QueryOptions options;
  options.pool = &lk::ThreadPool::Default();
  options.stats_out = &stats;
  Result<Table> out = engine_->Query(sql, options);
  ++engine_queries_;
  if (Tracer::enabled()) {
    counts_.cache_hits += stats.cache_hits;
    counts_.cache_misses += stats.cache_misses;
    counts_.rows_shipped += stats.rows_shipped;
    counts_.join_input_rows += stats.join_input_rows;
  }
  return out;
}

void Bench::Record(Client* c, Op op, int64_t t0, bool ok,
                   const std::string& what) {
  c->slices.back().samples[ClassOf(op)].Add(NowNs() - t0);
  ++c->slices.back().ops;
  if (!ok) {
    ++c->failed;
    checks_.Fail("operation", what);
  }
}

void Bench::Upkeep(Client* c, const std::function<bool()>& op) {
  ++c->slices.back().ops;
  if (!op()) ++c->failed;
}

namespace {

bool CoveredBy(const lk::query::Expr& expr, const lk::table::Schema& schema) {
  std::vector<std::string> columns;
  expr.CollectColumns(&columns);
  for (const std::string& c : columns) {
    if (!schema.HasField(c)) return false;
  }
  return !columns.empty();
}

}  // namespace

/// Replays a query's plan through the operators, on the tables the cache
/// holds, timing each step, and runs the same query once more through
/// `probe_engine_` on those cached tables. The engine's time beyond the
/// operators it runs (parse, pushed filters with the cached zone maps,
/// join, residual filter, aggregate, sort) is what it spends elsewhere:
/// cache lookups, copies of whole tables (the scan of an unfiltered source,
/// the joined table passed on as "__current__") and the result; Report()
/// turns it into op.materialize_ms.
void Bench::ReplayQuery(const std::string& sql) {
  int64_t operators_ns = 0;
  auto timed = [&](const char* name, auto&& fn) {
    Span span(name);
    const int64_t t0 = NowNs();
    auto out = fn();
    operators_ns += NowNs() - t0;
    return out;
  };
  Result<lk::query::SelectStatement> parsed =
      timed("sql.parse", [&] { return lk::query::ParseSql(sql); });
  if (!parsed.ok()) return;
  const lk::query::SelectStatement& stmt = *parsed;
  lk::storage::Polystore& ps = *query_store_;
  lk::query::TableCache::Entry from =
      cache_->Find(stmt.from_table, ps.generation(stmt.from_table));
  lk::query::TableCache::Entry join;
  if (stmt.join_table) {
    join = cache_->Find(*stmt.join_table, ps.generation(*stmt.join_table));
    if (!join) return;
  }
  if (!from) return;  // evicted or overwritten since the query ran

  lk::query::QueryOptions options;
  options.pool = &lk::ThreadPool::Default();
  lk::query::FederationStats probe_stats;
  options.stats_out = &probe_stats;
  const int64_t engine_start = NowNs();
  Result<Table> engine_result = [&] {
    Span span("query.probe");
    return probe_engine_->Query(sql, options);
  }();
  const int64_t engine_ns = NowNs() - engine_start;
  // Served from the cached tables only, or the time holds a decode too.
  if (!engine_result.ok() || probe_stats.cache_misses > 0) return;

  lk::query::ExecOptions exec;
  exec.pool = &lk::ThreadPool::Default();
  std::vector<lk::query::ExprPtr> conjuncts;
  lk::query::SplitConjuncts(stmt.where, &conjuncts);
  std::vector<lk::query::ExprPtr> from_push, join_push, residual;
  for (const lk::query::ExprPtr& c : conjuncts) {
    if (CoveredBy(*c, from->table.schema())) {
      from_push.push_back(c);
    } else if (join && CoveredBy(*c, join->table.schema())) {
      join_push.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  // An unfiltered source is used in place; the engine copies it, and that
  // copy falls into the engine's remainder.
  auto scan = [&](const lk::query::CachedTable& cached,
                  const std::vector<lk::query::ExprPtr>& push,
                  Table* filtered) -> const Table* {
    lk::query::ExprPtr pred = lk::query::CombineConjuncts(push);
    if (!pred) return &cached.table;
    lk::query::FilterExecStats fstats;
    Result<Table> t = timed("op.filter", [&] {
      return lk::query::Filter(cached.table, *pred, &cached.zones, exec,
                               &fstats);
    });
    counts_.morsels_total += fstats.morsels_total;
    counts_.morsels_pruned += fstats.morsels_pruned;
    if (!t.ok()) return nullptr;
    *filtered = std::move(*t);
    return filtered;
  };
  Table from_filtered, join_filtered, owned;
  uint64_t rows_in = from->table.num_rows();
  const Table* current = scan(*from, from_push, &from_filtered);
  if (current == nullptr) return;
  // Replaces `current` with an operator's output.
  auto step = [&](const char* name, auto&& op) {
    Result<Table> t = timed(name, op);
    if (!t.ok()) return false;
    owned = std::move(*t);
    current = &owned;
    return true;
  };
  if (join) {
    rows_in += join->table.num_rows();
    const Table* right = scan(*join, join_push, &join_filtered);
    if (right == nullptr) return;
    if (!step("op.hash_join", [&] {
          return lk::query::HashJoin(*current, *right, stmt.join_left_col,
                                     stmt.join_right_col,
                                     lk::query::JoinType::kInner, exec);
        })) {
      return;
    }
  }
  if (lk::query::ExprPtr pred = lk::query::CombineConjuncts(residual)) {
    if (!step("op.filter",
              [&] { return lk::query::Filter(*current, *pred, exec); })) {
      return;
    }
  }
  std::vector<lk::query::AggSpec> aggs;
  for (const lk::query::SelectItem& item : stmt.items) {
    if (item.agg) aggs.push_back({*item.agg, item.column, item.alias});
  }
  if (!aggs.empty() || !stmt.group_by.empty()) {
    if (!step("op.aggregate", [&] {
          return lk::query::Aggregate(*current, stmt.group_by, aggs, exec);
        })) {
      return;
    }
  }
  if (stmt.order_by) {
    if (!step("op.sort", [&] {
          return lk::query::Sort(*current, *stmt.order_by,
                                 stmt.order_ascending, exec);
        })) {
      return;
    }
  }
  const size_t rows_out =
      stmt.limit ? std::min(*stmt.limit, current->num_rows())
                 : current->num_rows();
  counts_.replayed += 1;
  counts_.engine_outside_ops_ns += engine_ns - operators_ns;
  counts_.rows_in += rows_in;
  counts_.rows_out += std::max<uint64_t>(1, rows_out);
}

void Bench::DoQuery(Client* c) {
  const size_t f = zipf_ ? zipf_->Sample(c->rng)
                         : c->rng.Below(qlake_.facts.size());
  const FactDataset& fact = qlake_.facts[f];
  size_t pick = c->rng.Below(kShapeDraws);
  size_t shape = 0;
  while (pick >= kShapeWeights[shape]) pick -= kShapeWeights[shape++];
  const size_t q = shape + 4 * c->rng.Below(fact.queries.size() / 4);
  const uint64_t version = w_.overwrite_queried ? version_[f] : 0;
  const int64_t t0 = NowNs();
  Result<Table> r = [&] {
    Span span("query");
    return RunQuery(fact.queries[q].sql);
  }();
  Record(c, Op::kQuery, t0, r.ok(),
         r.ok() ? "" : fact.queries[q].sql + ": " + r.status().ToString());
  counts_.queries += 1;
  if (!r.ok()) return;
  const std::string why =
      CheckQueryResult(fact.queries[q], fact.expected[version % 2][q], *r);
  checks_.Expect(why.empty(), "query", [&] {
    return fact.queries[q].sql + " (version " + std::to_string(version) +
           "): " + why;
  });
  // One query in four is replayed, which bounds the traced run's extra
  // work while sampling every shape on every fact.
  if (Tracer::enabled() && ++c->queries % 4 == 0) {
    ReplayQuery(fact.queries[q].sql);
  }
}

void Bench::DoJosie(Client* c) {
  const DiscTable& t = disc_[planted_[c->rng.Below(planted_.size())]];
  const DiscTable& partner = disc_[static_cast<size_t>(t.partner)];
  const int64_t t0 = NowNs();
  Result<std::vector<lk::discovery::ColumnMatch>> r = [&] {
    Span span("discovery.josie_lookup");
    return lake_->FindJoinableColumns(t.name, "ent", 3);
  }();
  Record(c, Op::kJosie, t0, r.ok(),
         r.ok() ? "" : "josie " + t.name + ": " + r.status().ToString());
  if (!r.ok()) return;
  const lk::discovery::Corpus* corpus = lake_->corpus();
  bool ok = !r->empty();
  std::string got = "nothing";
  if (ok) {
    const lk::discovery::ColumnId top = r->front().column;
    const Table& table = corpus->table(top.table_idx);
    got = table.name() + "." + table.schema().field(top.col_idx).name +
          " overlap " + std::to_string(r->front().score);
    const size_t want = t.overlap + (args_.corrupt == "josie" ? 1 : 0);
    ok = table.name() == partner.name &&
         table.schema().field(top.col_idx).name == "ent" &&
         r->front().score == static_cast<double>(want);
  }
  checks_.Expect(ok, "josie", [&] {
    return t.name + ".ent top-1 should be " + partner.name + ".ent, got " + got;
  });
  if (Tracer::enabled() && replica_josie_) {
    Result<lk::discovery::ColumnId> id =
        replica_corpus_->FindColumn(t.name, "ent");
    if (id.ok()) {
      std::vector<lk::discovery::ColumnMatch> m =
          replica_josie_->TopKOverlapColumns(*id, 3);
      (void)m;  // ignore: run for the postings counter only.
      counts_.josie_lookups += 1;
      counts_.josie_postings += replica_josie_->last_query_postings_scanned();
    }
  }
}

void Bench::DoAurum(Client* c) {
  const DiscTable& t = disc_[planted_[c->rng.Below(planted_.size())]];
  const int64_t t0 = NowNs();
  Result<std::vector<lk::discovery::TableMatch>> r = [&] {
    Span span("discovery.aurum_lookup");
    return lake_->FindJoinableTables(t.name, kJoinableTopK);
  }();
  Record(c, Op::kAurum, t0, r.ok(),
         r.ok() ? "" : "aurum " + t.name + ": " + r.status().ToString());
  if (!r.ok()) return;
}

/// Median of the window's index rebuilds at the reference speed; the set-up
/// build scaled by `speed` when there were none.
double Bench::IndexBuildMedianS(double speed) {
  if (index_builds_.empty()) {
    return static_cast<double>(setup_index_build_ns_) * speed / 1e9;
  }
  return Median(index_builds_) / 1e9;
}

/// Share of the planted pairs whose partner FindJoinableTables returns in
/// its top-k, over every planted table in both directions.
double Bench::DiscoveryRecall() {
  size_t hits = 0;
  for (size_t i : planted_) {
    Result<std::vector<lk::discovery::TableMatch>> r =
        lake_->FindJoinableTables(disc_[i].name, kJoinableTopK);
    if (!r.ok()) continue;
    const std::string& partner =
        disc_[static_cast<size_t>(disc_[i].partner)].name;
    for (const lk::discovery::TableMatch& m : *r) {
      if (m.table_name == partner) {
        ++hits;
        break;
      }
    }
  }
  return planted_.empty() ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(planted_.size());
}

void Bench::DoUnion(Client* c) {
  const DiscTable& t = disc_[c->rng.Below(disc_.size())];
  const int64_t t0 = NowNs();
  Result<std::vector<lk::discovery::UnionMatch>> r = [&] {
    Span span("discovery.union_lookup");
    return lake_->FindUnionableTables(t.name, 5);
  }();
  Record(c, Op::kUnion, t0, r.ok(),
         r.ok() ? "" : "union " + t.name + ": " + r.status().ToString());
}

void Bench::DoSearch(Client* c) {
  const std::string keyword = Keyword(c->rng.Below(w_.disc.keywords));
  // find(), never operator[]: a search must not change the model.
  static const std::set<std::string> kNone;
  const auto tagged = tagged_.find(keyword);
  const std::set<std::string>& want =
      tagged == tagged_.end() ? kNone : tagged->second;
  std::string probe;
  if (!want.empty()) {
    auto it = want.begin();
    std::advance(it, c->rng.Below(want.size()));
    probe = *it;
  }
  const int64_t t0 = NowNs();
  std::vector<lk::catalog::DatasetEntry> found;
  {
    Span span("catalog.search");
    found = lake_->Search(keyword);
  }
  Result<lk::catalog::DatasetEntry> entry =
      probe.empty() ? Result<lk::catalog::DatasetEntry>(
                          Status::NotFound("no dataset tagged " + keyword))
                    : lake_->catalog().Get(probe);
  Record(c, Op::kSearch, t0, probe.empty() || entry.ok(),
         "catalog get " + probe);
  std::set<std::string> got;
  for (const lk::catalog::DatasetEntry& e : found) got.insert(e.name);
  checks_.Expect(got == want, "catalog", [&] {
    return "search " + keyword + " returned " + std::to_string(got.size()) +
           " datasets, want " + std::to_string(want.size());
  });
  if (entry.ok()) {
    const size_t records = records_.at(probe);
    checks_.Expect(entry->num_records == records, "catalog", [&] {
      return probe + ".num_records " + std::to_string(entry->num_records) +
             ", want " + std::to_string(records);
    });
  }
}

void Bench::DoIngest(Client* c) {
  if (next_ingest_ % kIngestsPerLanding == 0) {
    Upkeep(c, [&] { return OpenLanding(); });
  }
  if (!landing_) return;
  const size_t index = next_ingest_++;
  DiscTable t = MakeIngestTable(index, kIngestRows, index % 2 == 1,
                                Keyword(c->rng.Below(w_.disc.keywords)));
  run_input_bytes_ += static_cast<int64_t>(t.content.size());
  const int64_t t0 = NowNs();
  const bool ok = Ingest(*landing_, t);
  Record(c, Op::kIngest, t0, ok, "ingest " + t.name);
  if (!ok) return;
  Result<lk::catalog::DatasetEntry> entry = landing_->catalog().Get(t.name);
  const size_t want = t.rows + (args_.corrupt == "catalog" ? 1 : 0);
  checks_.Expect(entry.ok() && entry->num_records == want, "catalog", [&] {
    return t.name + ".num_records " +
           (entry.ok() ? std::to_string(entry->num_records) : "missing") +
           ", want " + std::to_string(want);
  });
}

void Bench::LakehouseUpkeep(Client* c) {
  DeltaState& d = c->delta;
  Upkeep(c, [&] {
    Status s = d.table->Checkpoint();
    checks_.Expect(s.ok(), "lakehouse",
                   [&] { return "checkpoint: " + s.ToString(); });
    d.since_checkpoint = 0;
    return s.ok();
  });
  // Time travel: the latest version and one drawn at random.
  Upkeep(c, [&] {
    const int64_t latest = static_cast<int64_t>(d.prefix.size()) - 1;
    Result<int64_t> version = d.table->Version();
    checks_.Expect(version.ok() && *version == latest, "lakehouse", [&] {
      return "version " + (version.ok() ? std::to_string(*version) : "error") +
             ", want " + std::to_string(latest);
    });
    const int64_t v = static_cast<int64_t>(c->rng.Below(d.prefix.size()));
    for (int64_t at : {latest, v}) {
      Result<Table> t = [&] {
        Span span("lakehouse.snapshot");
        return d.table->Read(at);
      }();
      if (!t.ok()) return false;
      int64_t sum = 0;
      Result<size_t> col = t->ColumnIndex("v");
      for (size_t r = 0; col.ok() && r < t->num_rows(); ++r) {
        const int64_t* x = t->at(r, *col).get_int();
        sum += x != nullptr ? *x : 0;
      }
      const int64_t want = d.prefix[static_cast<size_t>(at)];
      checks_.Expect(sum == want, "lakehouse", [&] {
        return d.table->name() + "@" + std::to_string(at) + " sum " +
               std::to_string(sum) + ", want " + std::to_string(want);
      });
    }
    return true;
  });
  if (d.prefix.size() > kAppendsPerTable) {
    Upkeep(c, [&] { return NewDeltaTable(c); });
  }
}

void Bench::DoAppend(Client* c) {
  DeltaState& d = c->delta;
  lk::table::Schema schema = d.table->schema();
  Table rows("rows", schema);
  int64_t sum = 0;
  for (size_t i = 0; i < kAppendRows; ++i) {
    const int64_t v = static_cast<int64_t>(c->rng.Below(1000000));
    sum += v;
    Status s = rows.AppendRow(
        {lk::table::Value(static_cast<int64_t>(d.prefix.size() * 1000 + i)),
         lk::table::Value(v)});
    (void)s;  // ignore: the row matches the schema built above.
  }
  run_input_bytes_ += static_cast<int64_t>(rows.ToCsv().size());
  const uint64_t since = d.since_checkpoint;
  const int64_t t0 = NowNs();
  Status s = [&] {
    Span span("lakehouse.commit");
    return d.table->Append(rows);
  }();
  Record(c, Op::kAppend, t0, s.ok(), "append: " + s.ToString());
  if (!s.ok()) return;
  d.prefix.push_back(d.prefix.back() + sum);
  counts_.commits += 1;
  counts_.commits_since_checkpoint += since;
  if (++d.since_checkpoint == kCheckpointEvery) LakehouseUpkeep(c);
}

void Bench::DoPut(Client* c) {
  const size_t f = zipf_ ? zipf_->Sample(c->rng)
                         : c->rng.Below(qlake_.facts.size());
  const FactDataset& fact = qlake_.facts[f];
  const uint64_t v = version_[f] + 1;
  const std::string& key = w_.overwrite_queried ? fact.key : side_keys_[f];
  const std::string& data = fact.csv[v % 2];
  run_input_bytes_ += static_cast<int64_t>(data.size()) -
                      static_cast<int64_t>(fact.csv[(v - 1) % 2].size());
  const int64_t t0 = NowNs();
  Status s = [&] {
    Span span("storage.object_put");
    return query_store_->objects().Put(key, data);
  }();
  Record(c, Op::kPut, t0, s.ok(), "put " + key + ": " + s.ToString());
  counts_.puts += 1;
  if (s.ok()) version_[f] = v;
}

void Bench::RunOp(Client* c, Op op, uint64_t op_id) {
  OpScope scope(op_id);
  switch (op) {
    case Op::kQuery:
      return DoQuery(c);
    case Op::kJosie:
      return DoJosie(c);
    case Op::kAurum:
      return DoAurum(c);
    case Op::kUnion:
      return DoUnion(c);
    case Op::kSearch:
      return DoSearch(c);
    case Op::kIngest:
      return DoIngest(c);
    case Op::kAppend:
      return DoAppend(c);
    case Op::kPut:
      return DoPut(c);
  }
}

void Bench::RunClient(Client* c, int64_t end_ns, size_t max_rounds) {
  c->slices.back().reference_ns = ReferenceNs();
  int64_t slice_start = NowNs();
  int64_t slice_end = slice_start + kSliceNs;
  // Whole rounds only: the clock is read between rounds, never inside one.
  for (size_t rounds = 0;;) {
    const int64_t now = NowNs();
    if (rounds == max_rounds || now >= end_ns || now >= slice_end) {
      c->slices.back().ns = now - slice_start;
      if (rounds == max_rounds || now >= end_ns) return;
      c->slices.emplace_back();
      c->slices.back().reference_ns = ReferenceNs();
      slice_start = NowNs();
      while (slice_end <= slice_start) slice_end += kSliceNs;
    }
    for (Op op : round_) RunOp(c, op, ++c->seq);
    ++rounds;
    if (w_.rebuild_every_rounds > 0 && rounds % w_.rebuild_every_rounds == 0) {
      OpScope scope(++c->seq);
      Upkeep(c, [&] {
        const int64_t t0 = NowNs();
        Status s = BuildIndexes();
        index_builds_.push_back(static_cast<double>(NowNs() - t0) *
                                c->slices.back().speed());
        checks_.Expect(s.ok(), "operation",
                       [&] { return "index rebuild: " + s.ToString(); });
        return s.ok();
      });
    }
  }
}

void Bench::Run() {
  // The traced run's counters cover the warm-up rounds and the window.
  admission_at_start_ = admission_->stats();
  cache_at_start_ = cache_->stats();
  syncs_at_start_ = query_fs_.syncs() + lakehouse_fs_.syncs();
  publishes_at_start_ = lakehouse_fs_.publishes();
  if (tracing_source_) bytes_read_at_start_ = tracing_source_->bytes_read;
  // Set-up's queries counted these.
  counts_.cache_hits = 0;
  counts_.cache_misses = 0;
  counts_.rows_shipped = 0;
  counts_.join_input_rows = 0;
  Client* c = client_.get();
  RunClient(c, INT64_MAX, w_.warmup_rounds);
  // The end-to-end figures cover the window only. A warm-up operation that
  // failed has already failed a check.
  c->slices.assign(1, Slice());
  c->failed = 0;
  index_builds_.clear();
  run_start_ns_ = NowNs();
  RunClient(c, run_start_ns_ + static_cast<int64_t>(args_.seconds * 1e9),
            SIZE_MAX);
  run_end_ns_ = NowNs();
}

// ----------------------------------------------------------------- report

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

int Bench::Report() {
  const std::vector<Slice>& slices = client_->slices;
  uint64_t ops = 0;
  size_t class_samples[3] = {0, 0, 0};
  for (const Slice& slice : slices) {
    ops += slice.ops;
    for (int k = 0; k < 3; ++k) class_samples[k] += slice.samples[k].size();
  }
  const uint64_t failed = client_->failed;
  const double window_s =
      static_cast<double>(run_end_ns_ - run_start_ns_) / 1e9;
  // The median over the slices of `figure`: a few seconds in which the
  // host runs the benchmark slower move it little.
  auto over_slices = [&](const std::function<double(const Slice&)>& figure) {
    std::vector<double> values;
    for (const Slice& slice : slices) {
      if (slice.ns > 0) values.push_back(figure(slice));
    }
    return Median(values);
  };
  // Timings at the reference speed (see ReferenceNs).
  auto ops_per_s = [](const Slice& slice) {
    return static_cast<double>(slice.ops) * 1e9 /
           static_cast<double>(slice.ns);
  };
  auto quantile = [&](int k, double q, double unit_ns) {
    return over_slices([&](const Slice& slice) {
             return slice.samples[k].Quantile(q) * slice.speed();
           }) /
           unit_ns;
  };
  const double setup_s =
      static_cast<double>(setup_end_ns_ - start_ns_ - setup_index_build_ns_ -
                          setup_ingest_ns_) /
      1e9;
  // Set-up is scaled by the host's speed over the window, which one reading
  // taken at set-up would give less surely.
  const double reference_ns = over_slices([](const Slice& slice) {
    return static_cast<double>(slice.reference_ns);
  });
  const double speed = kReferenceNs / reference_ns;

  // Budget and admission: the process budget never went over its
  // capacity, and the admission ledger balances against our own tally.
  const lk::query::AdmissionStats admission = admission_->stats();
  const uint64_t tally =
      engine_queries_ + (args_.corrupt == "budget" ? 1 : 0);
  checks_.Expect(budget_->peak_used() <= budget_->capacity(), "budget", [&] {
    return "peak " + std::to_string(budget_->peak_used()) + " > " +
           std::to_string(budget_->capacity());
  });
  const uint64_t finished = admission.completed + admission.failed;
  checks_.Expect(finished == tally, "budget", [&] {
    return "admission completed+failed " + std::to_string(finished) +
           " != queries run " + std::to_string(tally);
  });
  for (int k = 0; k < 3; ++k) {
    if (class_samples[k] < 200) {
      std::fprintf(stderr, "lakebench: note: class %d has %zu samples\n", k,
                   class_samples[k]);
    }
  }

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!args_.trace) {
    metrics = {
        {"setup_s", setup_s * speed, "s"},
        {"ops_per_s", over_slices([&](const Slice& slice) {
           return ops_per_s(slice) / slice.speed();
         }),
         "op/s"},
        {"query_p50_ms", quantile(kQueryClass, 0.50, 1e6), "ms"},
        {"query_p95_ms", quantile(kQueryClass, 0.95, 1e6), "ms"},
        {"lookup_p50_us", quantile(kLookupClass, 0.50, 1e3), "us"},
        {"lookup_p95_us", quantile(kLookupClass, 0.95, 1e3), "us"},
        {"write_p50_ms", quantile(kWriteClass, 0.50, 1e6), "ms"},
        {"write_p95_ms", quantile(kWriteClass, 0.95, 1e6), "ms"},
        {"index_build_s", IndexBuildMedianS(speed), "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"stored_bytes_per_input_byte",
         static_cast<double>(DirectoryBytes(args_.lake_dir) +
                             query_fs_.bytes() + lakehouse_fs_.bytes()) /
             static_cast<double>(input_bytes_ + run_input_bytes_),
         "ratio"},
        {"discovery_recall", DiscoveryRecall(), "ratio"},
    };
  } else {
    const std::map<std::string, Tracer::Total> totals = Tracer::Totals();
    auto mean = [&](const char* name, double unit_ns) {
      auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return static_cast<double>(it->second.sum_ns) /
             static_cast<double>(it->second.count) / unit_ns;
    };
    auto sum_s = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0
                                : static_cast<double>(it->second.sum_ns) / 1e9;
    };
    auto ratio = [](double num, double den) {
      return den == 0 ? 0.0 : num / den;
    };
    const double replayed = static_cast<double>(counts_.replayed.load());
    auto per_replay_ms = [&](const char* name) {
      return ratio(sum_s(name) * 1e3, replayed);
    };
    const double queries = static_cast<double>(counts_.queries.load());
    const double commits = static_cast<double>(counts_.commits.load());
    const lk::LruCacheStats cache = cache_->stats();
    const double hits = static_cast<double>(counts_.cache_hits.load());
    const double misses = static_cast<double>(counts_.cache_misses.load());
    metrics = {
        {"storage.object_get_ms", mean("storage.object_get", 1e6), "ms"},
        {"storage.bytes_read_per_query",
         ratio(static_cast<double>(tracing_source_->bytes_read.load() -
                                   bytes_read_at_start_),
               queries),
         "bytes"},
        {"storage.object_put_ms", mean("storage.object_put", 1e6), "ms"},
        {"storage.syncs_per_write",
         ratio(static_cast<double>(query_fs_.syncs() + lakehouse_fs_.syncs() -
                                   syncs_at_start_),
               commits + static_cast<double>(counts_.puts.load())),
         "count"},
        {"decode.csv_ms", mean("decode.csv", 1e6), "ms"},
        {"decode.rows_per_s",
         ratio(static_cast<double>(tracing_source_->rows_decoded.load()),
               sum_s("decode.csv")),
         "rows/s"},
        {"decode.json_ms", mean("decode.json", 1e6), "ms"},
        {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"cache.evictions_per_kquery",
         ratio(1000.0 * static_cast<double>(cache.evictions -
                                            cache_at_start_.evictions),
               queries),
         "count"},
        {"zone_map.build_ms", mean("zone_map.build", 1e6), "ms"},
        {"zone_map.pruned_ratio",
         ratio(static_cast<double>(counts_.morsels_pruned.load()),
               static_cast<double>(counts_.morsels_total.load())),
         "ratio"},
        {"sql.parse_us", mean("sql.parse", 1e3), "us"},
        {"op.filter_ms", per_replay_ms("op.filter"), "ms"},
        {"op.hash_join_ms", per_replay_ms("op.hash_join"), "ms"},
        {"op.aggregate_ms", per_replay_ms("op.aggregate"), "ms"},
        {"op.sort_ms", per_replay_ms("op.sort"), "ms"},
        {"op.materialize_ms",
         ratio(static_cast<double>(counts_.engine_outside_ops_ns.load()) / 1e6,
               replayed),
         "ms"},
        {"op.rows_in_per_row_out",
         ratio(static_cast<double>(counts_.rows_in.load()),
               static_cast<double>(counts_.rows_out.load())),
         "ratio"},
        {"fed.rows_shipped",
         ratio(static_cast<double>(counts_.rows_shipped.load()), queries),
         "rows"},
        {"fed.join_input_rows",
         ratio(static_cast<double>(counts_.join_input_rows.load()), queries),
         "rows"},
        {"admission.queued_ratio",
         ratio(static_cast<double>(admission.queued -
                                   admission_at_start_.queued),
               static_cast<double>(admission.admitted -
                                   admission_at_start_.admitted)),
         "ratio"},
        {"budget.peak_mib", static_cast<double>(budget_->peak_used()) / kMiB,
         "MiB"},
        {"discovery.corpus_build_s", mean("discovery.corpus_build", 1e9), "s"},
        {"discovery.aurum_build_s", mean("discovery.aurum_build", 1e9), "s"},
        {"discovery.josie_build_s", mean("discovery.josie_build", 1e9), "s"},
        {"discovery.josie_lookup_us", mean("discovery.josie_lookup", 1e3),
         "us"},
        {"discovery.josie_postings_per_lookup",
         ratio(static_cast<double>(counts_.josie_postings.load()),
               static_cast<double>(counts_.josie_lookups.load())),
         "count"},
        {"discovery.aurum_lookup_us", mean("discovery.aurum_lookup", 1e3),
         "us"},
        {"discovery.union_lookup_us", mean("discovery.union_lookup", 1e3),
         "us"},
        {"catalog.search_us", mean("catalog.search", 1e3), "us"},
        {"ingest.profile_ms", mean("ingest.profile", 1e6), "ms"},
        {"catalog.register_ms", mean("catalog.register", 1e6), "ms"},
        {"lakehouse.commit_ms", mean("lakehouse.commit", 1e6), "ms"},
        {"lakehouse.snapshot_ms", mean("lakehouse.snapshot", 1e6), "ms"},
        {"lakehouse.commits_since_checkpoint",
         ratio(static_cast<double>(counts_.commits_since_checkpoint.load()),
               commits),
         "count"},
        {"lakehouse.objects_per_commit",
         ratio(static_cast<double>(lakehouse_fs_.publishes() -
                                   publishes_at_start_),
               commits),
         "count"},
    };
    if (!args_.trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(args_.trace_dir, ec);
      const std::string path = args_.trace_dir + "/" + w_.name + "-seed" +
                               std::to_string(args_.seed) + ".spans.csv";
      const int64_t n = Tracer::WriteSpans(path);
      std::fprintf(stderr, "lakebench: wrote %" PRId64 " spans to %s\n", n,
                   path.c_str());
    }
  }

  // Per-class sample counts and the window, for the log.
  std::fprintf(stderr,
               "lakebench: %s seed %" PRIu64 ": %.2f s window, %" PRIu64
               " ops in %zu slices (%zu query, %zu lookup, %zu write "
               "samples), %" PRIu64 " failed, %" PRIu64 " check failures\n",
               w_.name.c_str(), args_.seed, window_s, ops, slices.size(),
               class_samples[kQueryClass], class_samples[kLookupClass],
               class_samples[kWriteClass], failed, checks_.failures());

  // The host's speed and the figures as measured, before scaling.
  std::fprintf(
      stderr,
      "lakebench: reference %.3f ms, median over the slices; as measured: "
      "setup_s %.4g, ops_per_s %.5g, query_p50_ms %.4g\n",
      reference_ns / 1e6, setup_s, over_slices(ops_per_s),
      over_slices([](const Slice& slice) {
        return slice.samples[kQueryClass].Quantile(0.5);
      }) / 1e6);

  const lk::LruCacheStats cache_end = cache_->stats();
  const double window_hits =
      static_cast<double>(cache_end.hits - cache_at_start_.hits);
  const double window_lookups =
      window_hits +
      static_cast<double>(cache_end.misses - cache_at_start_.misses);
  std::fprintf(stderr,
               "lakebench: table cache %zu entries, %.1f of %.1f MiB, hit "
               "ratio %.3f in the window; budget peak %.1f of %.1f MiB\n",
               cache_end.entries, static_cast<double>(cache_end.charge) / kMiB,
               static_cast<double>(w_.cache_bytes) / kMiB,
               window_lookups > 0 ? window_hits / window_lookups : 0.0,
               static_cast<double>(budget_->peak_used()) / kMiB,
               static_cast<double>(budget_->capacity()) / kMiB);

  const bool correct = checks_.failures() == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--lake-dir") {
      args->lake_dir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--corrupt") {
      args->corrupt = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->lake_dir.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace lakebench

int main(int argc, char** argv) {
  const int64_t start_ns = lakebench::NowNs();
  lakebench::Args args;
  if (!lakebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lakebench --workload W --seed N --seconds S "
                 "--trace 0|1 --lake-dir DIR [--trace-dir DIR] "
                 "[--corrupt FAMILY]\n");
    return 2;
  }
  lakebench::Workload w = lakebench::MakeWorkload(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "lakebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin the pool size before anything starts the default pool.
  setenv("LAKEKIT_THREADS", std::to_string(lakebench::kPoolThreads).c_str(),
         1);
  int code = 1;
  {
    lakebench::Bench bench(args, w, start_ns);
    if (bench.Setup()) {
      bench.Run();
      code = bench.Report();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(args.lake_dir, ec);
  return code;
}
