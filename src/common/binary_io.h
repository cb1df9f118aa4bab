// Binary (de)serialization helpers for the epoch snapshot container
// (storage/epoch_snapshot.h), the one on-disk format: its graph, attribute,
// hierarchy, HIMOR and sketch sections are encoded with the buffer writer
// and decoded with the span reader below. Format discipline: fixed-width
// little-endian integers (we only target little-endian platforms, checked at
// build time) and length-prefixed arrays of PODs; the container adds the
// magic, version and a CRC32C per section (common/crc32c.h).
//
// Hostile-input stance: the reader treats every byte from disk as attacker-
// controlled. Length prefixes are validated against the bytes actually
// remaining BEFORE any allocation (a corrupt uint64_t length must produce a
// clean Status, never a bad_alloc/OOM), reads past EOF fail instead of
// yielding zeros, and the first failure latches into status() with the
// offset where decoding stopped so loaders can report precise diagnostics.

#ifndef COD_COMMON_BINARY_IO_H_
#define COD_COMMON_BINARY_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

static_assert(std::endian::native == std::endian::little,
              "codlib's binary formats assume a little-endian platform");

namespace cod {

// Appends PODs and length-prefixed arrays to a std::string. Snapshot
// sections are assembled here so each section's CRC32C can be computed over
// the exact bytes that hit the disk.
class BinaryBufferWriter {
 public:
  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WritePod<uint64_t>(values.size());
    buf_.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
  }

  // Length-prefixed string (for interned names and the like).
  void WriteString(std::string_view s) {
    WritePod<uint64_t>(s.size());
    buf_.append(s.data(), s.size());
  }

  void WriteBytes(std::string_view bytes) {
    buf_.append(bytes.data(), bytes.size());
  }

  size_t size() const { return buf_.size(); }
  const std::string& bytes() const { return buf_; }
  std::string&& TakeBytes() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Decodes PODs and length-prefixed arrays from an in-memory byte range the
// caller keeps alive. Every read validates against the remaining bytes
// before touching memory; the first failure latches (all later reads fail
// fast) and status() describes what broke and where.
class BinarySpanReader {
 public:
  // `origin` names the byte source in error messages (a path, a snapshot
  // section, ...).
  explicit BinarySpanReader(std::string_view bytes, std::string origin = "")
      : bytes_(bytes), origin_(std::move(origin)) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return bytes_.size() - off_; }
  bool exhausted() const { return off_ == bytes_.size(); }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!status_.ok()) return false;
    if (remaining() < sizeof(T)) {
      return Fail("truncated: need " + std::to_string(sizeof(T)) + " bytes");
    }
    std::memcpy(value, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  // Rejects lengths that cannot possibly fit in the remaining bytes before
  // allocating anything: a corrupted length field must not OOM or throw.
  template <typename T>
  bool ReadVector(std::vector<T>* values, uint64_t max_elements = UINT64_MAX) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t size = 0;
    if (!ReadPod(&size)) return false;
    if (size > max_elements) {
      return Fail("array length " + std::to_string(size) + " exceeds cap " +
                  std::to_string(max_elements));
    }
    if (size > remaining() / sizeof(T)) {
      return Fail("array length " + std::to_string(size) +
                  " exceeds remaining bytes");
    }
    values->resize(size);
    std::memcpy(values->data(), bytes_.data() + off_, size * sizeof(T));
    off_ += size * sizeof(T);
    return true;
  }

  bool ReadString(std::string* s, uint64_t max_bytes = UINT64_MAX) {
    uint64_t size = 0;
    if (!ReadPod(&size)) return false;
    if (size > max_bytes || size > remaining()) {
      return Fail("string length " + std::to_string(size) + " out of range");
    }
    s->assign(bytes_.data() + off_, size);
    off_ += size;
    return true;
  }

  // Records a decoding failure discovered by the CALLER (a semantic check
  // over successfully read bytes) so it surfaces through status() like any
  // read failure. Always returns false.
  bool Fail(const std::string& why) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          (origin_.empty() ? std::string("<buffer>") : origin_) +
          " at offset " + std::to_string(off_) + ": " + why);
    }
    return false;
  }

 private:
  std::string_view bytes_;
  std::string origin_;
  size_t off_ = 0;
  Status status_;
};

}  // namespace cod

#endif  // COD_COMMON_BINARY_IO_H_
