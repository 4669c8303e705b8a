// Best-effort secure zeroization of secret material.
//
// A plain memset before a buffer dies is legal for the compiler to elide
// (dead-store elimination); the helpers here write through a volatile pointer
// and fence with an empty asm clobber so the wipe survives optimization.
// Used on the error/exit paths of the KEM layer so secrets (decrypted
// messages, KDF inputs, expanded secret vectors) do not linger on the stack
// or in freed heap blocks after a request fails.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "common/bits.hpp"

namespace saber {

/// Overwrite `n` bytes at `p` with zeros through a volatile pointer.
inline void secure_zeroize(void* p, std::size_t n) {
  volatile unsigned char* vp = static_cast<volatile unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) vp[i] = 0;
#if defined(__GNUC__) || defined(__clang__)
  __asm__ __volatile__("" : : "r"(p) : "memory");
#endif
}

/// Overwrite a span. Arithmetic elements take one volatile store each
/// (a transformed secret is i64 words: an eighth of the byte loop's stores),
/// and so do u64xN vector words (a Keccak state: 25 stores, not 400 or 800).
template <typename T>
  requires std::is_trivially_copyable_v<T>
void secure_zeroize(std::span<T> s) {
  if constexpr (std::is_arithmetic_v<T>) {
    volatile T* vp = s.data();
    for (std::size_t i = 0; i < s.size(); ++i) vp[i] = T{};
#if defined(__GNUC__) || defined(__clang__)
    __asm__ __volatile__("" : : "r"(s.data()) : "memory");
#endif
  } else if constexpr (is_u64xN_v<std::remove_cv_t<T>>) {
    using V = decltype(T::v);
    for (T& w : s) {
      volatile V* vp = &w.v;
      *vp = V{};
    }
#if defined(__GNUC__) || defined(__clang__)
    __asm__ __volatile__("" : : "r"(s.data()) : "memory");
#endif
  } else {
    secure_zeroize(s.data(), s.size_bytes());
  }
}

/// Zeroize a trivially-copyable object in place.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void secure_zeroize_object(T& t) {
  secure_zeroize(&t, sizeof(T));
}

/// RAII wiper: zeroizes the referenced object when the scope exits, whether
/// normally or by exception — the property the "zeroize on error paths"
/// guarantee rests on.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class ZeroizeGuard {
 public:
  explicit ZeroizeGuard(T& target) : target_(target) {}
  ~ZeroizeGuard() { secure_zeroize_object(target_); }

  ZeroizeGuard(const ZeroizeGuard&) = delete;
  ZeroizeGuard& operator=(const ZeroizeGuard&) = delete;

 private:
  T& target_;
};

/// ZeroizeGuard over a span: wipes a buffer held elsewhere, such as a heap
/// vector's contents.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class ZeroizeSpanGuard {
 public:
  explicit ZeroizeSpanGuard(std::span<T> target) : target_(target) {}
  ~ZeroizeSpanGuard() { secure_zeroize(target_); }
  ZeroizeSpanGuard(const ZeroizeSpanGuard&) = delete;
  ZeroizeSpanGuard& operator=(const ZeroizeSpanGuard&) = delete;

 private:
  std::span<T> target_;
};

}  // namespace saber
