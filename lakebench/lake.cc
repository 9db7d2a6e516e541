#include "lake.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "query/zone_map.h"
#include "trace.h"

namespace lakebench {

using lakekit::Result;
using lakekit::Status;
using lakekit::storage::Fs;
using lakekit::storage::FsDirEntry;
using lakekit::storage::WritableFile;
using lakekit::table::Table;

uint64_t Rng64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t sub) {
  Rng64 rng(seed ^ (tag * 0xD1B54A32D192ED03ull) ^
            (sub * 0x8CB92BA72F3D8DD7ull));
  rng.Next();
  return rng.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng64& rng) const {
  const double u = rng.Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

// ------------------------------------------------------------ query tier

namespace {

const char* const kRegions[] = {"north", "south",   "east",   "west",
                                "central", "coastal", "alpine", "delta"};
constexpr int64_t kScanWidth = 64;
constexpr size_t kTopN = 10;
constexpr size_t kDimRows = 1000;
constexpr size_t kQueriesPerShape = 4;
/// Discovery tables t with t % 3 == 1 are ingested as JSON.
constexpr size_t kJsonEvery = 3;

/// `prefix` followed by `n` zero-padded to `width` digits.
std::string Padded(const std::string& prefix, size_t n, size_t width) {
  std::string digits = std::to_string(n);
  if (digits.size() < width) digits.insert(0, width - digits.size(), '0');
  return prefix + digits;
}

std::vector<FactRow> MakeFactRows(Rng64& rng, int64_t id_base, size_t n) {
  std::vector<int64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  std::vector<FactRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = id_base + static_cast<int64_t>(i);
    rows[i].cust = static_cast<int64_t>(rng.Below(kDimRows));
    rows[i].qty = 1 + static_cast<int64_t>(rng.Below(100));
    rows[i].amount = perm[i] * 1000 + static_cast<int64_t>(rng.Below(1000));
  }
  return rows;
}

std::string FactCsv(const std::vector<FactRow>& rows, Rng64& rng) {
  std::string csv = "id,cust,qty,amount,tag\n";
  csv.reserve(rows.size() * 36);
  for (const FactRow& r : rows) {
    csv += std::to_string(r.id);
    csv += ',';
    csv += std::to_string(r.cust);
    csv += ',';
    csv += std::to_string(r.qty);
    csv += ',';
    csv += std::to_string(r.amount);
    csv += ",c";
    csv += std::to_string(rng.Below(1000));
    csv += '\n';
  }
  return csv;
}

Expected Answer(const QuerySpec& spec, int64_t param,
                const std::vector<FactRow>& rows, const DimTable& dim) {
  Expected e;
  switch (spec.shape) {
    case Shape::kScan:
      for (const FactRow& r : rows) {
        if (r.id >= param && r.id < param + kScanWidth) {
          if (e.rows == 0) e.extra = r.id;
          ++e.rows;
          e.sum += r.amount;
        }
      }
      break;
    case Shape::kJoinGroup:
      for (const FactRow& r : rows) {
        if (r.qty <= param) continue;
        auto& g = e.groups[dim.region[static_cast<size_t>(r.cust)]];
        ++g.first;
        g.second += r.amount;
      }
      break;
    case Shape::kTopN: {
      std::vector<std::pair<int64_t, int64_t>> hits;
      for (const FactRow& r : rows) {
        if (r.qty <= param) hits.emplace_back(r.id, r.amount);
      }
      const size_t k = std::min(kTopN, hits.size());
      std::partial_sort(hits.begin(), hits.begin() + k, hits.end(),
                        [](const auto& a, const auto& b) {
                          return a.second > b.second;
                        });
      hits.resize(k);
      e.top = std::move(hits);
      e.rows = static_cast<int64_t>(k);
      break;
    }
    case Shape::kFullAgg:
      for (const FactRow& r : rows) {
        ++e.rows;
        e.sum += r.amount;
        e.extra += r.qty;
      }
      break;
  }
  return e;
}

}  // namespace

QueryLake MakeQueryLake(uint64_t seed, const QueryLakeOptions& options) {
  QueryLake lake;
  for (size_t d = 0; d < options.num_dims; ++d) {
    Rng64 rng(StreamSeed(seed, 1, d));
    DimTable dim;
    dim.name = "dim_" + std::to_string(d);
    dim.key = "dims/" + dim.name + ".csv";
    dim.csv = "cid,region\n";
    for (size_t c = 0; c < kDimRows; ++c) {
      dim.region.push_back(kRegions[rng.Below(std::size(kRegions))]);
      dim.csv += std::to_string(c) + "," + dim.region.back() + "\n";
    }
    lake.dims.push_back(std::move(dim));
  }
  const int64_t n = static_cast<int64_t>(options.fact_rows);
  for (size_t f = 0; f < options.num_facts; ++f) {
    FactDataset fact;
    fact.name = Padded("fact_", f, 2);
    fact.key = "facts/" + fact.name + ".csv";
    fact.dim = f % options.num_dims;
    const int64_t id_base = 1000000 * static_cast<int64_t>(f + 1);
    for (int v = 0; v < 2; ++v) {
      Rng64 rng(StreamSeed(seed, 2 + f, v));
      fact.rows[v] = MakeFactRows(rng, id_base, options.fact_rows);
      fact.csv[v] = FactCsv(fact.rows[v], rng);
    }
    Rng64 qrng(StreamSeed(seed, 5000 + f));
    const std::string& dim = lake.dims[fact.dim].name;
    std::vector<int64_t> params;
    for (size_t i = 0; i < kQueriesPerShape; ++i) {
      const int64_t lo =
          id_base + static_cast<int64_t>(qrng.Below(n - kScanWidth));
      fact.queries.push_back(
          {Shape::kScan, "SELECT id, amount FROM " + fact.name +
                             " WHERE id >= " + std::to_string(lo) +
                             " AND id < " + std::to_string(lo + kScanWidth)});
      params.push_back(lo);
      // Selectivities are a fixed ladder, not drawn: the seed then changes
      // which rows match but not how many, so a query's cost and the
      // workload's mix of costs do not move with the seed.
      const int64_t step = static_cast<int64_t>(i);
      const int64_t q_join = 20 + 15 * step;
      fact.queries.push_back(
          {Shape::kJoinGroup,
           "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM " + fact.name +
               " JOIN " + dim + " ON " + fact.name + ".cust = " + dim +
               ".cid WHERE qty > " + std::to_string(q_join) +
               " GROUP BY region"});
      params.push_back(q_join);
      const int64_t q_top = 3 + 5 * step;
      fact.queries.push_back(
          {Shape::kTopN, "SELECT id, amount FROM " + fact.name +
                             " WHERE qty <= " + std::to_string(q_top) +
                             " ORDER BY amount DESC LIMIT " +
                             std::to_string(kTopN)});
      params.push_back(q_top);
      fact.queries.push_back(
          {Shape::kFullAgg, "SELECT COUNT(*) AS n, SUM(amount) AS s, "
                            "SUM(qty) AS sq FROM " +
                                fact.name});
      params.push_back(0);
    }
    for (int v = 0; v < 2; ++v) {
      for (size_t q = 0; q < fact.queries.size(); ++q) {
        fact.expected[v].push_back(Answer(fact.queries[q], params[q],
                                          fact.rows[v], lake.dims[fact.dim]));
      }
    }
    lake.facts.push_back(std::move(fact));
  }
  return lake;
}

namespace {

/// The int64 in column `name` of row `row`, or nullopt.
std::optional<int64_t> IntAt(const Table& t, size_t row,
                             std::string_view name) {
  Result<size_t> col = t.ColumnIndex(name);
  if (!col.ok() || row >= t.num_rows()) return std::nullopt;
  const int64_t* v = t.at(row, *col).get_int();
  if (v == nullptr) return std::nullopt;
  return *v;
}

std::string Mismatch(const std::string& what, int64_t want,
                     std::optional<int64_t> got) {
  return what + ": want " + std::to_string(want) + ", got " +
         (got ? std::to_string(*got) : std::string("none"));
}

}  // namespace

std::string CheckQueryResult(const QuerySpec& spec, const Expected& expected,
                             const Table& result) {
  const int64_t rows = static_cast<int64_t>(result.num_rows());
  switch (spec.shape) {
    case Shape::kScan: {
      if (rows != expected.rows) {
        return Mismatch("scan rows", expected.rows, rows);
      }
      int64_t sum = 0;
      for (size_t r = 0; r < result.num_rows(); ++r) {
        std::optional<int64_t> a = IntAt(result, r, "amount");
        if (!a) return "scan: amount not int64";
        sum += *a;
      }
      if (sum != expected.sum) return Mismatch("scan sum", expected.sum, sum);
      std::optional<int64_t> first = IntAt(result, 0, "id");
      if (first != expected.extra) {
        return Mismatch("scan first id", expected.extra, first);
      }
      return "";
    }
    case Shape::kJoinGroup: {
      if (rows != static_cast<int64_t>(expected.groups.size())) {
        return Mismatch("groups", static_cast<int64_t>(expected.groups.size()),
                        rows);
      }
      Result<size_t> region = result.ColumnIndex("region");
      if (!region.ok()) return "group: no region column";
      for (size_t r = 0; r < result.num_rows(); ++r) {
        const std::string* key = result.at(r, *region).get_string();
        if (key == nullptr) return "group: region not a string";
        auto it = expected.groups.find(*key);
        if (it == expected.groups.end()) return "group: unexpected " + *key;
        std::optional<int64_t> n = IntAt(result, r, "n");
        if (n != it->second.first) {
          return Mismatch("count(" + *key + ")", it->second.first, n);
        }
        std::optional<int64_t> s = IntAt(result, r, "s");
        if (s != it->second.second) {
          return Mismatch("sum(" + *key + ")", it->second.second, s);
        }
      }
      return "";
    }
    case Shape::kTopN: {
      if (rows != expected.rows) {
        return Mismatch("top rows", expected.rows, rows);
      }
      for (size_t r = 0; r < expected.top.size(); ++r) {
        std::optional<int64_t> id = IntAt(result, r, "id");
        std::optional<int64_t> amount = IntAt(result, r, "amount");
        if (id != expected.top[r].first) {
          return Mismatch("top id #" + std::to_string(r), expected.top[r].first,
                          id);
        }
        if (amount != expected.top[r].second) {
          return Mismatch("top amount #" + std::to_string(r),
                          expected.top[r].second, amount);
        }
      }
      return "";
    }
    case Shape::kFullAgg: {
      if (rows != 1) return Mismatch("agg rows", 1, rows);
      std::optional<int64_t> n = IntAt(result, 0, "n");
      if (n != expected.rows) return Mismatch("count(*)", expected.rows, n);
      std::optional<int64_t> s = IntAt(result, 0, "s");
      if (s != expected.sum) return Mismatch("sum(amount)", expected.sum, s);
      std::optional<int64_t> sq = IntAt(result, 0, "sq");
      if (sq != expected.extra) return Mismatch("sum(qty)", expected.extra, sq);
      return "";
    }
  }
  return "unknown shape";
}

// -------------------------------------------------------- discovery tier

std::string Keyword(size_t k) {
  std::string kw = "zq";
  kw += static_cast<char>('a' + (k / 26) % 26);
  kw += static_cast<char>('a' + k % 26);
  kw += "kw";
  return kw;
}

namespace {

/// A discovery table over `ent`, serialized as CSV or as a JSON array of
/// objects; `num` and `note` get values unique to the table.
DiscTable MakeTable(const std::string& name, const std::string& value_prefix,
                    int64_t num_base, const std::vector<std::string>& ent,
                    bool json, const std::string& tag) {
  DiscTable t;
  t.name = name;
  t.filename = name + (json ? ".json" : ".csv");
  t.tag = tag;
  t.rows = ent.size();
  t.content = json ? "[" : "ent,num,note\n";
  for (size_t i = 0; i < ent.size(); ++i) {
    const std::string num = std::to_string(num_base + static_cast<int64_t>(i));
    const std::string note = value_prefix + "n" + std::to_string(i);
    if (json) {
      if (i > 0) t.content += ",";
      t.content += "{\"ent\":\"" + ent[i] + "\",\"num\":" + num +
                   ",\"note\":\"" + note + "\"}";
    } else {
      t.content += ent[i] + "," + num + "," + note + "\n";
    }
  }
  if (json) t.content += "]";
  return t;
}

}  // namespace

std::vector<DiscTable> MakeDiscTables(uint64_t seed,
                                      const DiscLakeOptions& options) {
  Rng64 rng(StreamSeed(seed, 3));
  // Every keyword tags the same number of tables (within one); the seed
  // decides only which, so a search's cost does not move with the seed.
  std::vector<size_t> tags(options.num_tables);
  for (size_t t = 0; t < tags.size(); ++t) tags[t] = t % options.keywords;
  for (size_t i = tags.size(); i > 1; --i) {
    std::swap(tags[i - 1], tags[rng.Below(i)]);
  }
  std::vector<DiscTable> tables;
  std::vector<std::vector<std::string>> ents;  // each table's ent values
  const size_t n = options.rows;
  for (size_t t = 0; t < options.num_tables; ++t) {
    const std::string name = Padded("disc_", t, 3);
    const std::string prefix = std::string("d") + std::to_string(t) + "x";
    std::vector<std::string> ent;
    int partner = -1;
    const size_t pair = t / 2;
    if (pair < options.planted_pairs) {
      partner = static_cast<int>(t ^ 1);
      // Half to three quarters of each side is shared (Jaccard 0.33 to
      // 0.6), fixed per pair so recall does not vary with the seed.
      const size_t shared = n / 2 + (pair % 3) * n / 8;
      for (size_t i = 0; i < shared; ++i) {
        ent.push_back(std::string("p") + std::to_string(pair) + "s" +
                      std::to_string(i));
      }
      while (ent.size() < n) {
        ent.push_back(prefix + "u" + std::to_string(ent.size()));
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        ent.push_back(prefix + "u" + std::to_string(i));
      }
    }
    for (size_t i = ent.size(); i > 1; --i) {
      std::swap(ent[i - 1], ent[rng.Below(i)]);
    }
    const bool json = t % kJsonEvery == 1;
    const int64_t num_base = 5000000000ll + 100000ll * static_cast<int64_t>(t);
    DiscTable table =
        MakeTable(name, prefix, num_base, ent, json, Keyword(tags[t]));
    table.partner = partner;
    tables.push_back(std::move(table));
    ents.push_back(std::move(ent));
  }
  // The expected JOSIE overlap: a plain set intersection.
  for (size_t t = 0; t < tables.size(); ++t) {
    if (tables[t].partner < 0) continue;
    const std::vector<std::string>& other =
        ents[static_cast<size_t>(tables[t].partner)];
    const std::unordered_set<std::string> theirs(other.begin(), other.end());
    for (const std::string& v : ents[t]) tables[t].overlap += theirs.count(v);
  }
  return tables;
}

DiscTable MakeIngestTable(size_t index, size_t rows, bool json,
                          const std::string& tag) {
  const std::string prefix = std::string("i") + std::to_string(index) + "x";
  std::vector<std::string> ent;
  for (size_t i = 0; i < rows; ++i) {
    ent.push_back(prefix + "u" + std::to_string(i));
  }
  return MakeTable(Padded("new_", index, 6), prefix,
                   9000000000ll + 1000ll * static_cast<int64_t>(index), ent,
                   json, tag);
}

// --------------------------------------------------------------- storage

class MemFile : public WritableFile {
 public:
  MemFile(MemFs* fs, std::string path) : fs_(fs), path_(std::move(path)) {}
  Status Append(std::string_view data) override {
    if (closed_) return Status::Internal("append on closed file " + path_);
    return fs_->AppendTo(path_, data);
  }
  Status Sync() override {
    if (closed_) return Status::Internal("sync on closed file " + path_);
    fs_->syncs_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  Status Truncate(uint64_t size) override {
    if (closed_) return Status::Internal("truncate on closed file " + path_);
    return fs_->TruncateTo(path_, size);
  }
  Status Close() override {
    closed_ = true;
    return Status::OK();
  }

 private:
  MemFs* fs_;
  std::string path_;
  bool closed_ = false;
};

Result<std::unique_ptr<WritableFile>> MemFs::Open(const std::string& path,
                                                  bool truncate,
                                                  bool exclusive) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = files_.try_emplace(path);
  if (!inserted && exclusive) {
    return Status::AlreadyExists("file '" + path + "' exists");
  }
  if (truncate) it->second.clear();
  return std::unique_ptr<WritableFile>(std::make_unique<MemFile>(this, path));
}

Result<std::unique_ptr<WritableFile>> MemFs::OpenAppend(
    const std::string& path) {
  return Open(path, /*truncate=*/false, /*exclusive=*/false);
}

Result<std::unique_ptr<WritableFile>> MemFs::OpenTrunc(
    const std::string& path) {
  return Open(path, /*truncate=*/true, /*exclusive=*/false);
}

Result<std::unique_ptr<WritableFile>> MemFs::CreateExclusive(
    const std::string& path) {
  return Open(path, /*truncate=*/false, /*exclusive=*/true);
}

Status MemFs::AppendTo(const std::string& path, std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IoError("'" + path + "' vanished");
  it->second.append(data);
  return Status::OK();
}

Status MemFs::TruncateTo(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("'" + path + "' not found");
  it->second.resize(size, '\0');
  return Status::OK();
}

Result<std::string> MemFs::ReadFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("file '" + path + "' not found");
  }
  return it->second;
}

bool MemFs::FileExists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) != 0;
}

Status MemFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("file '" + path + "' not found");
  }
  return Status::OK();
}

Status MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("file '" + from + "' not found");
  }
  std::string data = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(data);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status MemFs::HardLink(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("file '" + from + "' not found");
  }
  // A copy stands in for the shared inode: the stores link only finished,
  // synced staging files and then remove them.
  if (!files_.try_emplace(to, it->second).second) {
    return Status::AlreadyExists("file '" + to + "' exists");
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status MemFs::CreateDirs(const std::string& path) {
  (void)path;  // ignore: directories are implied by the paths of files.
  return Status::OK();
}

Status MemFs::SyncDir(const std::string& path) {
  (void)path;  // ignore: counted only; there is nothing to flush.
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status MemFs::Truncate(const std::string& path, uint64_t size) {
  return TruncateTo(path, size);
}

Result<std::vector<FsDirEntry>> MemFs::ListDir(const std::string& dir,
                                               bool recursive) const {
  std::vector<FsDirEntry> out;
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    std::string name = it->first.substr(prefix.size());
    if (!recursive && name.find('/') != std::string::npos) continue;
    out.push_back(FsDirEntry{std::move(name), it->second.size()});
  }
  return out;
}

uint64_t MemFs::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, data] : files_) total += data.size();
  return total;
}

Result<Table> TracingSource::ReadAsTable(std::string_view name) {
  LAKEKIT_ASSIGN_OR_RETURN(lakekit::storage::DatasetLocation loc,
                           polystore_->Lookup(name));
  if (loc.store != lakekit::storage::StoreKind::kObject) {
    return polystore_->ReadAsTable(name);
  }
  std::string data;
  {
    Span span("storage.object_get");
    LAKEKIT_ASSIGN_OR_RETURN(data, polystore_->objects().Get(loc.locator));
  }
  bytes_read.fetch_add(data.size(), std::memory_order_relaxed);
  Result<Table> t = [&] {
    Span span("decode.csv");
    return Table::FromCsv(std::string(name), data);
  }();
  if (!t.ok()) return t;
  rows_decoded.fetch_add(t->num_rows(), std::memory_order_relaxed);
  {
    Span span("zone_map.build");
    lakekit::query::ZoneMap zones = lakekit::query::ZoneMap::Build(*t);
    (void)zones;  // ignore: built only to time what cache admission builds.
  }
  return t;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

}  // namespace lakebench
