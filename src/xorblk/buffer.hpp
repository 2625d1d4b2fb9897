#pragma once
// Owning byte buffer aligned for the XOR kernels. A stripe of an array
// code is stored as rows*cols consecutive blocks inside one Buffer.
//
// Allocation rule: a buffer of kMapBytes (16 MiB) or more — a large
// disk image — is one private anonymous mmap with MAP_POPULATE: the
// kernel hands it over zeroed and already faulted in, in one call, so a
// zero fill costs no memset and no per-page faults afterwards (192 MiB:
// 73-99 ms against 126-174 ms for new[] + memset). Smaller buffers come
// from new[]. The threshold is measured, not derived: with it at 1 MiB,
// a service of 3 MiB disk images answered block reads and writes about
// 6% slower at the median than with new[] (mmap'ed 24 MiB and 192 MiB
// images showed no such cost); the mechanism is unknown. Mapped buffers
// are page-aligned and invisible to ASan's heap tracking; their bounds
// are the callers' explicit checks.

#include <cstddef>
#include <cstdint>
#include <span>

namespace c56 {

class Buffer {
 public:
  static constexpr std::size_t kMapBytes = std::size_t{16} << 20;

  Buffer() = default;
  explicit Buffer(std::size_t size, std::uint8_t fill = 0);

  Buffer(const Buffer& other);
  Buffer& operator=(const Buffer& other);
  /// A moved-from buffer is empty.
  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  ~Buffer();

  std::size_t size() const noexcept { return size_; }
  std::uint8_t* data() noexcept { return bytes_; }
  const std::uint8_t* data() const noexcept { return bytes_; }

  std::span<std::uint8_t> span() noexcept { return {data(), size_}; }
  std::span<const std::uint8_t> span() const noexcept {
    return {data(), size_};
  }

  /// Block #i of a buffer partitioned into blocks of block_size bytes.
  std::span<std::uint8_t> block(std::size_t i, std::size_t block_size) noexcept {
    return span().subspan(i * block_size, block_size);
  }
  std::span<const std::uint8_t> block(std::size_t i,
                                      std::size_t block_size) const noexcept {
    return span().subspan(i * block_size, block_size);
  }

  void zero() noexcept;

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept;

 private:
  // The allocation rule is a function of the size alone, so size_ also
  // says how bytes_ is released.
  std::uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace c56
