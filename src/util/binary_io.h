// Little-endian binary file I/O used by the column files, the LAS
// reader/writer and the binary bulk loader.
//
// Every operation routes through util/fault_injection.h, so tests can kill
// a write sequence at any point, and every IOError carries the errno text.
// Durable formats are written via the atomic protocol (OpenAtomic/Commit:
// `path.tmp` -> flush -> fsync -> rename -> fsync parent directory), which
// guarantees a reader never observes a partially written file.
#ifndef GEOCOL_UTIL_BINARY_IO_H_
#define GEOCOL_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace geocol {

/// Buffered binary writer over a stdio FILE.
///
/// All multi-byte values are written little-endian (the native order on the
/// platforms this library targets; asserted at build configuration time).
class BinaryWriter {
 public:
  BinaryWriter() = default;
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Opens `path` for writing, truncating any existing file. For scratch
  /// output only — durable formats use OpenAtomic/Commit.
  Status Open(const std::string& path);

  /// Opens `path + ".tmp"` for writing. The data becomes visible at `path`
  /// only when Commit() succeeds; until then (crash, error, Abandon) a
  /// reader of `path` sees the previous file, complete and untouched.
  Status OpenAtomic(const std::string& path);

  /// Atomic-mode commit point: flush -> fsync -> close -> rename over
  /// `path` -> fsync parent directory.
  Status Commit();

  /// Closes and removes the `.tmp` file (best effort). Safe to call after
  /// a failed write/Commit and on non-atomic writers (plain close).
  void Abandon();

  /// Flush + close (no fsync, no rename). Atomic writers use Commit.
  Status Close();
  bool is_open() const { return file_ != nullptr; }

  Status WriteBytes(const void* data, size_t n);

  template <typename T>
  Status WriteScalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return WriteBytes(&value, sizeof(T));
  }

  template <typename T>
  Status WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return WriteBytes(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed (uint32) string.
  Status WriteString(const std::string& s);

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  uint64_t bytes_written_ = 0;
  std::string final_path_;  ///< atomic mode: rename target ("" otherwise)
  std::string tmp_path_;    ///< atomic mode: the file being written
};

/// Buffered binary reader over a stdio FILE.
class BinaryReader {
 public:
  BinaryReader() = default;
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status Open(const std::string& path);
  Status Close();
  bool is_open() const { return file_ != nullptr; }

  /// Reads exactly `n` bytes; Corruption on short read.
  Status ReadBytes(void* data, size_t n);

  /// Positioned read (`pread`): exactly `n` bytes at absolute `offset`,
  /// without moving the stream position. Concurrent ReadBytesAt calls on
  /// one reader never race on a shared file offset. Same transient-retry
  /// and Corruption-on-truncation semantics as ReadBytes.
  Status ReadBytesAt(uint64_t offset, void* data, size_t n);

  template <typename T>
  Status ReadScalar(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  /// Reads `count` elements into `v` (resized). The count is validated
  /// against the bytes remaining in the file BEFORE the resize, so a
  /// corrupt on-disk count fails with Corruption instead of attempting a
  /// multi-GB allocation.
  template <typename T>
  Status ReadVector(std::vector<T>* v, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    GEOCOL_RETURN_NOT_OK(CheckRemaining(count, sizeof(T)));
    v->resize(count);
    return ReadBytes(v->data(), count * sizeof(T));
  }

  /// Length-prefixed (uint32) string; the length is bounded by `max_len`
  /// and by the bytes remaining in the file.
  Status ReadString(std::string* s, uint32_t max_len = 1u << 20);

  Status Seek(uint64_t offset);
  /// Current read offset.
  uint64_t Tell() const { return pos_; }
  Result<uint64_t> FileSize();
  /// Bytes between the read position and the end of the file.
  uint64_t Remaining() const { return size_ > pos_ ? size_ - pos_ : 0; }
  /// Corruption unless `count` elements of `elem_size` fit in Remaining().
  Status CheckRemaining(uint64_t count, size_t elem_size) const;

 private:
  std::FILE* file_ = nullptr;
  uint64_t pos_ = 0;
  uint64_t size_ = 0;
};

/// Appends little-endian scalars/strings to an in-memory byte buffer; the
/// write-side counterpart of BufferReader for formats that are checksummed
/// and written as a whole (manifests, imprint sidecars).
class BufferWriter {
 public:
  void WriteBytes(const void* data, size_t n) {
    // resize + memcpy rather than insert: GCC 12's -Wstringop-overflow
    // misfires on the inlined insert path for small fixed-size writes.
    if (n == 0) return;
    size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  template <typename T>
  void WriteScalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed (uint32) string.
  void WriteString(const std::string& s) {
    WriteScalar<uint32_t>(static_cast<uint32_t>(s.size()));
    WriteBytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over an in-memory buffer (typically a whole file
/// already loaded and checksum-verified). Every count and length is
/// validated against the remaining bytes before any allocation.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Status ReadBytes(void* out, size_t n) {
    if (n > remaining()) {
      return Status::Corruption("buffer underrun: need " + std::to_string(n) +
                                " bytes, " + std::to_string(remaining()) +
                                " remain");
    }
    // An empty vector's data() may be null, and memcpy must not get one.
    if (n == 0) return Status::OK();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadScalar(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  template <typename T>
  Status ReadVector(std::vector<T>* v, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      return Status::Corruption("element count " + std::to_string(count) +
                                " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes remaining");
    }
    v->resize(count);
    return ReadBytes(v->data(), count * sizeof(T));
  }

  Status ReadString(std::string* s, uint32_t max_len = 1u << 20) {
    uint32_t len = 0;
    GEOCOL_RETURN_NOT_OK(ReadScalar(&len));
    if (len > max_len || len > remaining()) {
      return Status::Corruption("string length " + std::to_string(len) +
                                " exceeds limit");
    }
    s->resize(len);
    return ReadBytes(s->data(), len);
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Returns the size of `path` in bytes, or IOError.
Result<uint64_t> FileSizeBytes(const std::string& path);

/// True if `path` exists (file or directory).
bool PathExists(const std::string& path);

/// Writes `data` to `path` in one call (truncate-in-place semantics — a
/// crash mid-write can leave a torn file; durable formats use
/// WriteFileAtomic).
Status WriteFileBytes(const std::string& path, const void* data, size_t n);

/// Writes `data` to `path` with the atomic durable protocol: a reader of
/// `path` sees either the previous file or all of `data`, never a mix.
Status WriteFileAtomic(const std::string& path, const void* data, size_t n);

/// Reads the whole file into `out`.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Positioned full read on a raw descriptor: exactly `n` bytes at
/// `offset` via pread(2), with the same bounded EINTR/EAGAIN retry,
/// fault-injection hooks and Corruption-on-truncation semantics as
/// BinaryReader::ReadBytes. The descriptor's file offset is never moved,
/// so concurrent callers on one fd do not serialize or race. `path` is
/// used in error messages only.
Status PreadExact(int fd, uint64_t offset, void* data, size_t n,
                  const std::string& path);

/// rename(2) with fault injection and errno detail.
Status RenameFile(const std::string& from, const std::string& to);

/// unlink(2) with fault injection and errno detail. Missing file is OK.
Status RemoveFile(const std::string& path);

}  // namespace geocol

#endif  // GEOCOL_UTIL_BINARY_IO_H_
