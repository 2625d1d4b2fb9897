#include "xorblk/buffer.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace c56 {

namespace {

/// Storage for `size` bytes under the allocation rule; mapped storage
/// is already zeroed.
std::uint8_t* allocate(std::size_t size) {
  if (size < Buffer::kMapBytes) return new std::uint8_t[size];
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

void release(std::uint8_t* p, std::size_t size) noexcept {
  if (size >= Buffer::kMapBytes) {
    ::munmap(p, size);
  } else {
    delete[] p;
  }
}

}  // namespace

Buffer::Buffer(std::size_t size, std::uint8_t fill)
    : bytes_(allocate(size)), size_(size) {
  if (fill != 0 || size < kMapBytes) std::memset(bytes_, fill, size);
}

Buffer::Buffer(const Buffer& other)
    : bytes_(other.size_ ? allocate(other.size_) : nullptr),
      size_(other.size_) {
  if (size_ > 0) std::memcpy(bytes_, other.bytes_, size_);
}

Buffer& Buffer::operator=(const Buffer& other) {
  if (this == &other) return *this;
  Buffer tmp(other);
  std::swap(bytes_, tmp.bytes_);
  std::swap(size_, tmp.size_);
  return *this;
}

Buffer::Buffer(Buffer&& other) noexcept
    : bytes_(std::exchange(other.bytes_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  Buffer tmp(std::move(other));  // releases the old storage on return
  std::swap(bytes_, tmp.bytes_);
  std::swap(size_, tmp.size_);
  return *this;
}

Buffer::~Buffer() {
  if (bytes_) release(bytes_, size_);
}

void Buffer::zero() noexcept {
  if (size_ > 0) std::memset(bytes_, 0, size_);
}

bool operator==(const Buffer& a, const Buffer& b) noexcept {
  return a.size_ == b.size_ &&
         (a.size_ == 0 || std::memcmp(a.bytes_, b.bytes_, a.size_) == 0);
}

}  // namespace c56
