#include "columns/sharded_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "sfc/hilbert.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"

namespace geocol {

namespace {

constexpr char kShardManifestMagic[4] = {'G', 'S', 'M', '1'};
constexpr uint32_t kMaxManifestShards = 1u << 16;

/// Rows per Hilbert-key task, and per stack block of coordinates.
constexpr uint64_t kKeyMorselRows = uint64_t{1} << 16;
constexpr size_t kBlockRows = 1024;

/// A row's sort key beside its source row. Rows are unique, so sorting
/// (key, row) pairs in any order yields exactly the permutation a stable
/// sort by key alone would: equal keys keep source order.
struct KeyRow {
  uint64_t key;
  uint64_t row;
  bool operator<(const KeyRow& o) const {
    return key != o.key ? key < o.key : row < o.row;
  }
};

/// A pool whose workers plus the caller (which joins every ParallelFor)
/// make one thread per core.
ThreadPool MakeCorePool() {
  return ThreadPool(std::max(2u, std::thread::hardware_concurrency()) - 1);
}

/// out[i] = double(value of row begin + i): the conversion GetDouble
/// applies, with the type dispatch resolved once per call.
void ReadDoubles(const Column& col, uint64_t begin, size_t n, double* out) {
  DispatchDataType(col.type(), [&]<typename T>() {
    const T* v = col.Values<T>().data() + begin;
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(v[i]);
  });
}

/// Calls fn(xs, ys, first_row, count) over rows [begin, end) of the
/// resident x/y columns in blocks of at most kBlockRows, read as doubles.
template <typename Fn>
void ForEachXYBlock(const Column& x, const Column& y, uint64_t begin,
                    uint64_t end, Fn&& fn) {
  double xs[kBlockRows], ys[kBlockRows];
  for (uint64_t row = begin; row < end; row += kBlockRows) {
    const size_t m =
        static_cast<size_t>(std::min<uint64_t>(kBlockRows, end - row));
    ReadDoubles(x, row, m, xs);
    ReadDoubles(y, row, m, ys);
    fn(xs, ys, row, m);
  }
}

/// Sorts pairs[0, n): one part per thread, then parts merge pairwise
/// between `pairs` and `scratch`, the merges of each round in parallel.
/// Returns the buffer that holds the sorted pairs.
KeyRow* SortKeyRows(KeyRow* pairs, KeyRow* scratch, uint64_t n,
                    ThreadPool* pool) {
  const size_t parts = pool->num_threads() + 1;
  std::vector<uint64_t> bound(parts + 1);
  for (size_t p = 0; p <= parts; ++p) bound[p] = n * p / parts;
  pool->ParallelFor(parts, [&](size_t p) {
    std::sort(pairs + bound[p], pairs + bound[p + 1]);
  });
  KeyRow* src = pairs;
  KeyRow* dst = scratch;
  for (size_t width = 1; width < parts; width *= 2) {
    pool->ParallelFor((parts + 2 * width - 1) / (2 * width), [&](size_t m) {
      const size_t lo = 2 * m * width;
      const size_t mid = std::min(lo + width, parts);
      const size_t hi = std::min(lo + 2 * width, parts);
      std::merge(src + bound[lo], src + bound[mid], src + bound[mid],
                 src + bound[hi], dst + bound[lo]);
    });
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

size_t ShardedTable::ShardIndexOf(uint64_t global_row) const {
  // First shard whose base exceeds the row, minus one.
  size_t lo = 0, hi = shards_.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (shards_[mid].base <= global_row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Schema ShardedTable::schema() const {
  return shards_.empty() ? Schema() : shards_[0].table->schema();
}

Result<std::shared_ptr<ShardedTable>> ShardedTable::Create(
    const FlatTable& source, const ShardingOptions& options) {
  GEOCOL_RETURN_NOT_OK(source.Validate());
  for (const ColumnPtr& col : source.columns()) {
    if (col->paged()) {
      return Status::InvalidArgument(
          "cannot shard paged column '" + col->name() +
          "': load the table resident (or re-import) before sharding");
    }
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xcol,
                          source.GetColumn(options.x_column));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr ycol,
                          source.GetColumn(options.y_column));
  if (options.hilbert_order < 1 || options.hilbert_order > 31) {
    return Status::InvalidArgument("hilbert_order must be in [1, 31]");
  }

  auto out = std::make_shared<ShardedTable>();
  out->name_ = source.name();
  out->options_ = options;
  const uint64_t n = source.num_rows();

  // Extent the Hilbert keys scale to. HilbertEncodeScaled clamps
  // zero-extent boxes internally, so an all-equal point cloud still sorts
  // (all keys equal -> the (key, row) sort keeps the original order).
  Box extent;
  if (n > 0) {
    extent = Box(xcol->Stats().min, ycol->Stats().min, xcol->Stats().max,
                 ycol->Stats().max);
  }
  out->extent_ = extent;

  // Every large buffer is allocated here, on the calling thread, and the
  // pool's workers only fill it: a buffer a worker allocates lands in that
  // thread's malloc arena, which glibc keeps after the free (DESIGN.md §12).
  ThreadPool pool = MakeCorePool();

  // Sort key per row. Ties (identical curve cells) keep source order, so
  // the layout — and everything downstream: row ids, per-shard imprints,
  // merged results — is deterministic for a given source table.
  auto perm = std::make_unique_for_overwrite<uint64_t[]>(n);
  {
    auto pairs = std::make_unique_for_overwrite<KeyRow[]>(n);
    auto scratch = std::make_unique_for_overwrite<KeyRow[]>(n);
    const size_t morsels = (n + kKeyMorselRows - 1) / kKeyMorselRows;
    pool.ParallelFor(morsels, [&](size_t m) {
      const uint64_t begin = m * kKeyMorselRows;
      ForEachXYBlock(*xcol, *ycol, begin, std::min(n, begin + kKeyMorselRows),
                     [&](const double* xs, const double* ys, uint64_t row,
                         size_t count) {
                       for (size_t i = 0; i < count; ++i) {
                         pairs[row + i] = {
                             HilbertEncodeScaled(xs[i], ys[i], extent,
                                                 options.hilbert_order),
                             row + i};
                       }
                     });
    });
    const KeyRow* sorted = SortKeyRows(pairs.get(), scratch.get(), n, &pool);
    pool.ParallelFor(morsels, [&](size_t m) {
      const uint64_t begin = m * kKeyMorselRows;
      const uint64_t end = std::min(n, begin + kKeyMorselRows);
      for (uint64_t i = begin; i < end; ++i) perm[i] = sorted[i].row;
    });
  }

  // Near-equal contiguous splits: the first n % K shards get one extra
  // row. K is clamped so no shard is ever forced empty (and an empty
  // table keeps a single empty shard for schema access).
  const uint64_t k = std::min<uint64_t>(std::max<uint32_t>(options.num_shards, 1),
                                        std::max<uint64_t>(n, 1));
  out->options_.num_shards = static_cast<uint32_t>(k);
  const uint64_t per_shard = n / k;
  const uint64_t extra = n % k;
  const size_t cols = source.num_columns();
  // dst[s * cols + c] receives shard s's rows of source column c.
  std::vector<uint8_t*> dst(k * cols);
  uint64_t base = 0;
  out->shards_.resize(k);
  for (uint64_t s = 0; s < k; ++s) {
    const uint64_t rows = per_shard + (s < extra ? 1 : 0);
    ShardSlice& slice = out->shards_[s];
    slice.base = base;
    slice.table = std::make_shared<FlatTable>(source.name() + ".shard" +
                                              std::to_string(s));
    for (size_t c = 0; c < cols; ++c) {
      const Column& src = *source.column(c);
      auto col = std::make_shared<Column>(src.name(), src.type());
      dst[s * cols + c] = col->AppendUninitialized(rows);
      GEOCOL_RETURN_NOT_OK(slice.table->AddColumn(std::move(col)));
    }
    base += rows;
  }

  // Gather: one task per (shard, column), type-erased byte copies.
  pool.ParallelFor(k * cols, [&](size_t t) {
    const ShardSlice& slice = out->shards_[t / cols];
    const Column& src = *source.column(t % cols);
    const uint8_t* data = src.raw_data();
    const size_t w = src.width();
    uint8_t* to = dst[t];
    const uint64_t* rows = perm.get() + slice.base;
    const uint64_t count = slice.table->num_rows();
    for (uint64_t i = 0; i < count; ++i) {
      std::memcpy(to + i * w, data + rows[i] * w, w);
    }
  });
  pool.ParallelFor(k, [&](size_t s) {
    ShardSlice& slice = out->shards_[s];
    ForEachXYBlock(*slice.table->column(options.x_column),
                   *slice.table->column(options.y_column), 0,
                   slice.table->num_rows(),
                   [&](const double* xs, const double* ys, uint64_t,
                       size_t count) {
                     for (size_t i = 0; i < count; ++i) {
                       slice.bbox.Extend(xs[i], ys[i]);
                     }
                   });
  });
  out->num_rows_ = n;
  return out;
}

bool IsShardedTableDir(const std::string& dir) {
  return PathExists(dir + "/shards.gsm");
}

// Shard directory names carry the layout generation so a re-shard (or a
// live append) writes into fresh directories and never touches the ones
// the live manifest references — the manifest swap stays the only commit
// point even when the new layout has a different shard count.
std::string ShardDirName(size_t i, uint64_t gen) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "shard_%04zu.g%llu", i,
                static_cast<unsigned long long>(gen));
  return buf;
}

void CleanStaleShardDirs(const std::string& dir,
                         const ShardedTableManifest& keep) {
  std::vector<std::string> entries;
  if (!ListFiles(dir, "", &entries).ok()) return;
  for (const std::string& full : entries) {
    const std::string name = full.substr(full.find_last_of('/') + 1);
    // Only names of ShardDirName's shape: shard_NNNN.g<gen>.
    if (name.rfind("shard_", 0) != 0 || name.find(".g") == std::string::npos) {
      continue;
    }
    bool referenced = false;
    for (const auto& s : keep.shards) referenced |= s.dirname == name;
    if (!referenced) RemoveDirRecursive(full);
  }
}

Status WriteShardedTableManifest(const std::string& dir,
                                 const ShardedTableManifest& m) {
  BufferWriter b;
  b.WriteBytes(kShardManifestMagic, 4);
  b.WriteScalar<uint64_t>(m.generation);
  b.WriteString(m.table_name);
  b.WriteString(m.x_column);
  b.WriteString(m.y_column);
  b.WriteScalar<uint32_t>(m.hilbert_order);
  b.WriteScalar<double>(m.extent.min_x);
  b.WriteScalar<double>(m.extent.min_y);
  b.WriteScalar<double>(m.extent.max_x);
  b.WriteScalar<double>(m.extent.max_y);
  b.WriteScalar<uint32_t>(static_cast<uint32_t>(m.shards.size()));
  for (const auto& s : m.shards) {
    b.WriteString(s.dirname);
    b.WriteScalar<uint64_t>(s.rows);
    b.WriteScalar<double>(s.bbox.min_x);
    b.WriteScalar<double>(s.bbox.min_y);
    b.WriteScalar<double>(s.bbox.max_x);
    b.WriteScalar<double>(s.bbox.max_y);
  }
  uint32_t crc = Crc32c(b.buffer().data(), b.size());
  b.WriteScalar<uint32_t>(crc);
  return WriteFileAtomic(dir + "/shards.gsm", b.buffer().data(), b.size());
}

Result<ShardedTableManifest> ReadShardedTableManifest(const std::string& dir) {
  const std::string path = dir + "/shards.gsm";
  std::vector<uint8_t> bytes;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (bytes.size() < 8 ||
      std::memcmp(bytes.data(), kShardManifestMagic, 4) != 0) {
    return Status::Corruption("bad shard manifest magic: " + path);
  }
  const size_t body_size = bytes.size() - 4;
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body_size, 4);
  uint32_t computed = Crc32c(bytes.data(), body_size);
  if (stored != computed) {
    return Status::Corruption("shard manifest crc mismatch: " + path);
  }

  ShardedTableManifest m;
  BufferReader r(bytes.data(), body_size);
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r.ReadBytes(magic, 4));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.generation));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&m.table_name));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&m.x_column));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&m.y_column));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.hilbert_order));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.extent.min_x));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.extent.min_y));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.extent.max_x));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.extent.max_y));
  uint32_t num_shards = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&num_shards));
  // Each shard entry is at least 44 bytes; cap before allocating.
  if (num_shards == 0 || num_shards > kMaxManifestShards ||
      num_shards > r.remaining()) {
    return Status::Corruption("implausible shard count " +
                              std::to_string(num_shards) + ": " + path);
  }
  m.shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    ShardedTableManifest::ManifestShard s;
    GEOCOL_RETURN_NOT_OK(r.ReadString(&s.dirname));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&s.rows));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&s.bbox.min_x));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&s.bbox.min_y));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&s.bbox.max_x));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&s.bbox.max_y));
    if (s.dirname.empty() || s.dirname == "." || s.dirname == ".." ||
        s.dirname.find('/') != std::string::npos) {
      return Status::Corruption("bad shard dirname in manifest: " + path);
    }
    m.shards.push_back(std::move(s));
  }
  return m;
}

Status WriteShardedTableDir(const ShardedTable& table,
                            const std::string& dir) {
  GEOCOL_RETURN_NOT_OK(MakeDir(dir));
  // Shard column files first — each WriteTableDir is itself crash-safe and
  // generation-stamped, and a reader of the *sharded* layout follows
  // shards.gsm, which still references the previous (fully intact)
  // generation until the swap below.
  ShardedTableManifest m;
  m.table_name = table.name();
  m.x_column = table.x_column();
  m.y_column = table.y_column();
  m.hilbert_order = table.options().hilbert_order;
  m.extent = table.extent();
  uint64_t gen = 1;
  if (PathExists(dir + "/shards.gsm")) {
    auto old = ReadShardedTableManifest(dir);
    if (old.ok()) gen = old->generation + 1;
  }
  m.generation = gen;
  m.shards.resize(table.num_shards());
  for (size_t i = 0; i < table.num_shards(); ++i) {
    const ShardSlice& slice = table.shard(i);
    m.shards[i].dirname = ShardDirName(i, gen);
    m.shards[i].rows = slice.table->num_rows();
    m.shards[i].bbox = slice.bbox;
  }
  // The shards are independent directories, so they are written in
  // parallel; each one goes through the serial WriteTableDir.
  std::vector<Status> written(table.num_shards());
  {
    ThreadPool pool = MakeCorePool();
    pool.ParallelFor(table.num_shards(), [&](size_t i) {
      written[i] = WriteTableDir(*table.shard(i).table,
                                 dir + "/" + m.shards[i].dirname);
    });
  }
  for (const Status& st : written) GEOCOL_RETURN_NOT_OK(st);
  // The commit point, reached only when every shard is durable.
  GEOCOL_RETURN_NOT_OK(WriteShardedTableManifest(dir, m));
  CleanStaleShardDirs(dir, m);
  return Status::OK();
}

Result<std::shared_ptr<ShardedTable>> ReadShardedTableDir(
    const std::string& dir, bool verify_checksums, bool paged) {
  GEOCOL_ASSIGN_OR_RETURN(ShardedTableManifest m,
                          ReadShardedTableManifest(dir));
  auto out = std::make_shared<ShardedTable>();
  out->set_name(m.table_name);
  out->set_generation(m.generation);
  ShardingOptions options;
  options.num_shards = static_cast<uint32_t>(m.shards.size());
  options.hilbert_order = m.hilbert_order;
  options.x_column = m.x_column;
  options.y_column = m.y_column;

  uint64_t base = 0;
  Schema schema;
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const auto& ms = m.shards[i];
    const std::string shard_dir = dir + "/" + ms.dirname;
    GEOCOL_ASSIGN_OR_RETURN(FlatTable t,
                            paged ? ReadTableDirPaged(shard_dir)
                                  : ReadTableDir(shard_dir, verify_checksums));
    if (t.num_rows() != ms.rows) {
      return Status::Corruption("shard row count mismatch in " + shard_dir +
                                ": manifest says " + std::to_string(ms.rows) +
                                ", columns hold " +
                                std::to_string(t.num_rows()));
    }
    if (!t.schema().HasField(m.x_column) || !t.schema().HasField(m.y_column)) {
      return Status::Corruption("shard missing coordinate columns: " +
                                shard_dir);
    }
    if (i == 0) {
      schema = t.schema();
    } else if (!(schema == t.schema())) {
      return Status::Corruption("shard schema mismatch: " + shard_dir);
    }
    ShardSlice slice;
    slice.base = base;
    slice.bbox = ms.bbox;
    slice.dir = shard_dir;
    slice.table = std::make_shared<FlatTable>(std::move(t));
    base += ms.rows;
    out->shards().push_back(std::move(slice));
  }
  out->FinishLoad(options, m.extent, base);
  return out;
}

void ShardedTable::FinishLoad(const ShardingOptions& options,
                              const Box& extent, uint64_t num_rows) {
  options_ = options;
  extent_ = extent;
  num_rows_ = num_rows;
}

}  // namespace geocol
