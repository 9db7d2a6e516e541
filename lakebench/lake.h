#ifndef LAKEBENCH_LAKE_H_
#define LAKEBENCH_LAKE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "query/source.h"
#include "storage/fs.h"
#include "storage/polystore.h"
#include "table/table.h"

namespace lakebench {

/// SplitMix64: the benchmark's own generator, so the generated lake and the
/// expected answers depend on nothing inside lakekit.
class Rng64 {
 public:
  explicit Rng64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A stream seed derived from the run seed and up to two tags.
uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t sub = 0);

/// Draws ranks 0..n-1 with Zipf(s) popularity (rank 0 most popular).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ query tier

/// One fact row. `id` is clustered (ascending in file order), `amount` is
/// unique within a table version so ORDER BY amount has one right answer.
struct FactRow {
  int64_t id = 0;
  int64_t cust = 0;
  int64_t qty = 0;
  int64_t amount = 0;
};

enum class Shape { kScan, kJoinGroup, kTopN, kFullAgg };

/// One parameterized federated query over a fact table.
struct QuerySpec {
  Shape shape = Shape::kScan;
  std::string sql;
};

/// A query's answer computed with plain loops over the generated rows.
struct Expected {
  int64_t rows = 0;
  int64_t sum = 0;
  int64_t extra = 0;  // kScan: first id; kFullAgg: SUM(qty)
  std::map<std::string, std::pair<int64_t, int64_t>> groups;  // count, sum
  std::vector<std::pair<int64_t, int64_t>> top;               // id, amount
};

struct DimTable {
  std::string name;
  std::string key;  // object key
  std::vector<std::string> region;  // indexed by cid
  std::string csv;
};

/// An object-backed fact dataset with two alternating content versions;
/// an overwrite installs the other one, so version n holds content n % 2.
struct FactDataset {
  std::string name;
  std::string key;  // object key
  size_t dim = 0;   // index of the joined dimension table
  std::vector<FactRow> rows[2];
  std::string csv[2];
  /// The four shapes in Shape order, once per parameter draw:
  /// queries[4 * draw + shape].
  std::vector<QuerySpec> queries;
  std::vector<Expected> expected[2];  // parallel to `queries`
};

struct QueryLakeOptions {
  size_t num_facts = 4;
  size_t fact_rows = 20000;
  size_t num_dims = 2;
};

struct QueryLake {
  std::vector<DimTable> dims;
  std::vector<FactDataset> facts;
};

QueryLake MakeQueryLake(uint64_t seed, const QueryLakeOptions& options);

/// Empty when `result` is the answer `expected` describes for `spec`,
/// otherwise what differs.
std::string CheckQueryResult(const QuerySpec& spec, const Expected& expected,
                             const lakekit::table::Table& result);

// -------------------------------------------------------- discovery tier

/// A small table (columns ent, num, note) ingested through
/// DataLake::IngestFile for discovery and catalog lookups. Planted partners
/// share some `ent` values; every other value in the lake is unique to its
/// table and column, so JOSIE's top-1 for a planted column is its
/// partner's, with an overlap of exactly the shared count.
struct DiscTable {
  std::string name;
  std::string filename;
  std::string content;
  std::string tag;  // one catalog keyword
  size_t rows = 0;
  int partner = -1;    // index of the planted partner, -1 for background
  size_t overlap = 0;  // |ent ∩ partner's ent|, computed here
};

struct DiscLakeOptions {
  size_t num_tables = 40;
  size_t rows = 60;
  size_t planted_pairs = 8;
  size_t keywords = 6;
};

std::vector<DiscTable> MakeDiscTables(uint64_t seed,
                                      const DiscLakeOptions& options);

/// A fresh background table for ingestion during the run; `index` makes
/// its values and name unique.
DiscTable MakeIngestTable(size_t index, size_t rows, bool json,
                          const std::string& tag);

/// The catalog keyword with index `k`: fixed width, so no keyword is a
/// substring of another or of any name or schema the lake holds.
std::string Keyword(size_t k);

// --------------------------------------------------------------- storage

/// An in-memory Fs: the benchmark's memory-backed filesystem (a tmpfs
/// inside the process). The stores issue every call to it, fsyncs
/// included, and it counts them; no device is involved, so device latency
/// stays out of the numbers. Thread-safe: one mutex over the whole tree.
class MemFs : public lakekit::storage::Fs {
 public:
  MemFs() = default;
  MemFs(const MemFs&) = delete;
  MemFs& operator=(const MemFs&) = delete;

  lakekit::Result<std::unique_ptr<lakekit::storage::WritableFile>> OpenAppend(
      const std::string& path) override;
  lakekit::Result<std::unique_ptr<lakekit::storage::WritableFile>> OpenTrunc(
      const std::string& path) override;
  lakekit::Result<std::unique_ptr<lakekit::storage::WritableFile>>
  CreateExclusive(const std::string& path) override;
  lakekit::Result<std::string> ReadFile(const std::string& path) const override;
  bool FileExists(const std::string& path) const override;
  lakekit::Status Remove(const std::string& path) override;
  lakekit::Status Rename(const std::string& from,
                         const std::string& to) override;
  lakekit::Status HardLink(const std::string& from,
                           const std::string& to) override;
  lakekit::Status CreateDirs(const std::string& path) override;
  lakekit::Status SyncDir(const std::string& path) override;
  lakekit::Status Truncate(const std::string& path, uint64_t size) override;
  lakekit::Result<std::vector<lakekit::storage::FsDirEntry>> ListDir(
      const std::string& dir, bool recursive) const override;

  /// File fsyncs plus directory syncs issued so far.
  uint64_t syncs() const { return syncs_.load(); }
  /// Files published by rename or link so far.
  uint64_t publishes() const { return publishes_.load(); }
  /// Bytes held in files now.
  uint64_t bytes() const;

 private:
  friend class MemFile;
  lakekit::Status AppendTo(const std::string& path, std::string_view data);
  lakekit::Status TruncateTo(const std::string& path, uint64_t size);
  lakekit::Result<std::unique_ptr<lakekit::storage::WritableFile>> Open(
      const std::string& path, bool truncate, bool exclusive);

  mutable std::mutex mu_;
  std::map<std::string, std::string, std::less<>> files_;  // guarded by mu_
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> publishes_{0};
};

/// The traced run's query source: reads the polystore like
/// `PolystoreSource`, but splits each object-backed read into spans for
/// the object fetch and the CSV decode, and times a zone-map build of the
/// decoded table (the build the cache performs on admission).
class TracingSource : public lakekit::query::TableSource {
 public:
  explicit TracingSource(lakekit::storage::Polystore* polystore)
      : polystore_(polystore) {}

  lakekit::Result<lakekit::table::Table> ReadAsTable(
      std::string_view name) override;
  uint64_t Generation(std::string_view name) override {
    return polystore_->generation(name);
  }

  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> rows_decoded{0};

 private:
  lakekit::storage::Polystore* polystore_;
};

/// Bytes in regular files under `dir` on the real filesystem, recursively.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace lakebench

#endif  // LAKEBENCH_LAKE_H_
