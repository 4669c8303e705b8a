// Secret-independence (constant-time) taint analysis.
//
// `Tainted<T>` wraps a scalar with a runtime taint bit. Arithmetic and
// bitwise operators propagate the bit (result tainted iff any operand is);
// the operations a constant-time implementation must never perform on
// secret data *trap* — they record a `CtViolation` in the thread-local
// `Analysis` state and continue, so one audit run collects every leak site:
//
//   * branch / contextual conversion to bool of a tainted value
//     (covers `if (x == y)` — comparisons return Tainted<bool>);
//   * division or modulo with a tainted operand (variable-latency DIV);
//   * shift by a tainted amount (variable-time on some microarchitectures);
//   * any implicit escape of a tainted value into a plain integer — which
//     is also the only way a tainted value can become an array index, so
//     secret-dependent table lookups are trapped at the escape.
//
// The audited escape hatch is ct::declassify(x, "site"): it returns the raw
// value without a violation but logs the site, and the audit asserts the
// logged set equals the reviewed allowlist (docs/static_analysis.md).
//
// The secret-touching kernels are templated over their word types, so the
// exact same code runs as plain u16/u64/i64 in production (zero overhead:
// every helper below collapses to the bare expression) and as Tainted<...>
// under the ct_audit test binary.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"

namespace saber::ct {

enum class ViolationKind : u8 {
  kBranch,       ///< tainted value used as a branch condition / bool
  kDivision,     ///< tainted operand of /
  kModulo,       ///< tainted operand of %
  kShiftAmount,  ///< shift by a tainted amount
  kEscape,       ///< tainted value implicitly converted to a plain integer
                 ///< (array indexing lands here)
};

std::string_view to_string(ViolationKind kind);

/// One trapped secret-dependent operation.
struct CtViolation {
  ViolationKind kind;
  std::string site;  ///< '/'-joined SiteScope stack active at the trap
};

/// One audited declassification.
struct DeclassifyEvent {
  std::string site;   ///< the ct::declassify site tag
  std::string scope;  ///< SiteScope stack active at the call
};

/// Thread-local audit state. Violations and declassifications accumulate
/// until reset(); the ct_audit binary resets per flow and asserts
/// violations().empty() afterwards.
class Analysis {
 public:
  static Analysis& instance();

  void reset() {
    violations_.clear();
    declassifications_.clear();
  }

  void record(ViolationKind kind);
  void record_declassify(const char* site);

  const std::vector<CtViolation>& violations() const { return violations_; }
  const std::vector<DeclassifyEvent>& declassifications() const {
    return declassifications_;
  }

  void push_site(const char* name) { sites_.push_back(name); }
  void pop_site() { sites_.pop_back(); }
  std::string site_path() const;

 private:
  std::vector<CtViolation> violations_;
  std::vector<DeclassifyEvent> declassifications_;
  std::vector<const char*> sites_;
};

/// RAII tag for violation reports: SiteScope scope("decaps");
class SiteScope {
 public:
  explicit SiteScope(const char* name) { Analysis::instance().push_site(name); }
  ~SiteScope() { Analysis::instance().pop_site(); }
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;
};

template <typename T>
class Tainted;

template <typename W>
inline constexpr bool is_tainted_v = false;
template <typename T>
inline constexpr bool is_tainted_v<Tainted<T>> = true;

template <typename W>
struct raw_type {
  using type = W;
};
template <typename T>
struct raw_type<Tainted<T>> {
  using type = T;
};
/// The underlying arithmetic type of a (possibly tainted) word.
template <typename W>
using raw_t = typename raw_type<W>::type;

template <typename W, typename U>
struct rebind {
  using type = U;
};
template <typename T, typename U>
struct rebind<Tainted<T>, U> {
  using type = Tainted<U>;
};
/// Map a word type to its analog over a different arithmetic type:
/// rebind_t<u16, u32> = u32; rebind_t<Tainted<u16>, u32> = Tainted<u32>.
template <typename W, typename U>
using rebind_t = typename rebind<W, U>::type;

/// Taint-carrying scalar. Trivially copyable (so ZeroizeGuard applies) and
/// layout-stable; all state is the value plus one taint flag.
template <typename T>
class Tainted {
  static_assert(std::is_arithmetic_v<T>, "Tainted wraps arithmetic scalars");

 public:
  using value_type = T;

  constexpr Tainted() = default;
  /// Implicit from plain: public (untainted) constant.
  constexpr Tainted(T v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  constexpr Tainted(T v, bool taint) : v_(v), t_(taint) {}

  constexpr T raw() const { return v_; }
  constexpr bool tainted() const { return t_; }
  constexpr void set_taint(bool t) { t_ = t; }

  /// Implicit escape into the plain domain. Trapping here makes the model
  /// sound: any route out of the taint lattice other than ct::declassify —
  /// assignment to a plain variable, array subscripting, a switch condition —
  /// records a violation. `bool` escapes are branches; the rest are value
  /// escapes (array indexing is the common case).
  operator T() const {  // NOLINT(google-explicit-constructor)
    if (t_) {
      Analysis::instance().record(std::is_same_v<T, bool> ? ViolationKind::kBranch
                                                          : ViolationKind::kEscape);
    }
    return v_;
  }

 private:
  T v_{};
  bool t_ = false;
};

namespace detail {

template <typename W>
constexpr auto value_of(const W& w) {
  if constexpr (is_tainted_v<W>) {
    return w.raw();
  } else {
    return w;
  }
}

template <typename W>
constexpr bool taint_of(const W& w) {
  if constexpr (is_tainted_v<W>) {
    return w.tainted();
  } else {
    (void)w;
    return false;
  }
}

}  // namespace detail

// --- binary operators ------------------------------------------------------
//
// Result type mirrors the plain expression exactly (including integral
// promotion), so templated kernels need the same explicit narrowing casts in
// both modes. Each macro instantiates the three overload shapes
// (Tainted⊗Tainted, Tainted⊗plain, plain⊗Tainted); the mixed shapes are
// exact matches, which keeps overload resolution away from the trapping
// implicit conversion.

#define SABER_CT_BINOP(op)                                                        \
  template <typename T, typename U>                                               \
  constexpr auto operator op(const Tainted<T>& a, const Tainted<U>& b) {          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    return Tainted<R>(static_cast<R>(a.raw() op b.raw()),                         \
                      a.tainted() || b.tainted());                                \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(const Tainted<T>& a, U b) {                          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    return Tainted<R>(static_cast<R>(a.raw() op b), a.tainted());                 \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(U a, const Tainted<T>& b) {                          \
    using R = decltype(std::declval<U>() op std::declval<T>());                   \
    return Tainted<R>(static_cast<R>(a op b.raw()), b.tainted());                 \
  }

SABER_CT_BINOP(+)
SABER_CT_BINOP(-)
SABER_CT_BINOP(*)
SABER_CT_BINOP(&)
SABER_CT_BINOP(|)
SABER_CT_BINOP(^)
#undef SABER_CT_BINOP

// Division and modulo: variable-latency on real hardware; trap when any
// operand is tainted, then compute anyway so the audit keeps running.
#define SABER_CT_DIVOP(op, kind)                                                  \
  template <typename T, typename U>                                               \
  constexpr auto operator op(const Tainted<T>& a, const Tainted<U>& b) {          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    if (a.tainted() || b.tainted()) Analysis::instance().record(kind);            \
    return Tainted<R>(static_cast<R>(a.raw() op b.raw()),                         \
                      a.tainted() || b.tainted());                                \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(const Tainted<T>& a, U b) {                          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    if (a.tainted()) Analysis::instance().record(kind);                           \
    return Tainted<R>(static_cast<R>(a.raw() op b), a.tainted());                 \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(U a, const Tainted<T>& b) {                          \
    using R = decltype(std::declval<U>() op std::declval<T>());                   \
    if (b.tainted()) Analysis::instance().record(kind);                           \
    return Tainted<R>(static_cast<R>(a op b.raw()), b.tainted());                 \
  }

SABER_CT_DIVOP(/, ViolationKind::kDivision)
SABER_CT_DIVOP(%, ViolationKind::kModulo)
#undef SABER_CT_DIVOP

// Shifts: shifting a tainted *value* by a public amount is constant-time and
// merely propagates; a tainted shift *amount* traps.
#define SABER_CT_SHIFTOP(op)                                                      \
  template <typename T, typename U>                                               \
  constexpr auto operator op(const Tainted<T>& a, const Tainted<U>& b) {          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    if (b.tainted()) Analysis::instance().record(ViolationKind::kShiftAmount);    \
    return Tainted<R>(static_cast<R>(a.raw() op b.raw()),                         \
                      a.tainted() || b.tainted());                                \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(const Tainted<T>& a, U b) {                          \
    using R = decltype(std::declval<T>() op std::declval<U>());                   \
    return Tainted<R>(static_cast<R>(a.raw() op b), a.tainted());                 \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr auto operator op(U a, const Tainted<T>& b) {                          \
    using R = decltype(std::declval<U>() op std::declval<T>());                   \
    if (b.tainted()) Analysis::instance().record(ViolationKind::kShiftAmount);    \
    return Tainted<R>(static_cast<R>(a op b.raw()), b.tainted());                 \
  }

SABER_CT_SHIFTOP(<<)
SABER_CT_SHIFTOP(>>)
#undef SABER_CT_SHIFTOP

// Comparisons propagate into Tainted<bool>; the trap only fires if the
// result escapes into a real branch (operator bool above).
#define SABER_CT_CMPOP(op)                                                        \
  template <typename T, typename U>                                               \
  constexpr Tainted<bool> operator op(const Tainted<T>& a, const Tainted<U>& b) { \
    return Tainted<bool>(a.raw() op b.raw(), a.tainted() || b.tainted());         \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr Tainted<bool> operator op(const Tainted<T>& a, U b) {                 \
    return Tainted<bool>(a.raw() op b, a.tainted());                              \
  }                                                                               \
  template <typename T, typename U>                                               \
    requires std::is_arithmetic_v<U>                                              \
  constexpr Tainted<bool> operator op(U a, const Tainted<T>& b) {                 \
    return Tainted<bool>(a op b.raw(), b.tainted());                              \
  }

SABER_CT_CMPOP(==)
SABER_CT_CMPOP(!=)
SABER_CT_CMPOP(<)
SABER_CT_CMPOP(<=)
SABER_CT_CMPOP(>)
SABER_CT_CMPOP(>=)
#undef SABER_CT_CMPOP

// Unary operators.
template <typename T>
constexpr auto operator-(const Tainted<T>& a) {
  using R = decltype(-std::declval<T>());
  return Tainted<R>(static_cast<R>(-a.raw()), a.tainted());
}
template <typename T>
constexpr auto operator~(const Tainted<T>& a) {
  using R = decltype(~std::declval<T>());
  return Tainted<R>(static_cast<R>(~a.raw()), a.tainted());
}
template <typename T>
constexpr Tainted<bool> operator!(const Tainted<T>& a) {
  return Tainted<bool>(!a.raw(), a.tainted());
}

// Compound assignments: semantics of `a = static_cast<T>(a op b)`.
#define SABER_CT_COMPOUND(op)                                                     \
  template <typename T, typename U>                                               \
  constexpr Tainted<T>& operator op##=(Tainted<T>& a, const U& b) {               \
    auto r = a op b;                                                              \
    a = Tainted<T>(static_cast<T>(r.raw()), r.tainted());                         \
    return a;                                                                     \
  }

SABER_CT_COMPOUND(+)
SABER_CT_COMPOUND(-)
SABER_CT_COMPOUND(*)
SABER_CT_COMPOUND(/)
SABER_CT_COMPOUND(%)
SABER_CT_COMPOUND(&)
SABER_CT_COMPOUND(|)
SABER_CT_COMPOUND(^)
SABER_CT_COMPOUND(<<)
SABER_CT_COMPOUND(>>)
#undef SABER_CT_COMPOUND

// --- taint management ------------------------------------------------------

/// Mark a value as secret. Identity on plain words (production mode has no
/// taint lattice).
template <typename W>
constexpr W taint(W w) {
  if constexpr (is_tainted_v<W>) {
    w.set_taint(true);
  }
  return w;
}

/// Audited declassification: returns the raw value with no violation, and
/// logs `site` so the audit can assert the allowlist. Identity on plain
/// words. Every call site must be justified in docs/static_analysis.md.
template <typename W>
constexpr raw_t<W> declassify(const W& w, const char* site) {
  if constexpr (is_tainted_v<W>) {
    Analysis::instance().record_declassify(site);
    return w.raw();
  } else {
    (void)site;
    return w;
  }
}

/// Read the raw value without logging — for test assertions and debugging
/// ONLY. Never call from library code; the static lint forbids it outside
/// tests.
template <typename W>
constexpr raw_t<W> peek(const W& w) {
  if constexpr (is_tainted_v<W>) {
    return w.raw();
  } else {
    return w;
  }
}

/// Is the word's taint bit set? (false for all plain words)
template <typename W>
constexpr bool is_tainted(const W& w) {
  return detail::taint_of(w);
}

// --- generic arithmetic helpers -------------------------------------------
//
// Mode-neutral forms of the bit helpers in common/bits.hpp. For plain word
// types they compile to the identical expressions; for Tainted words they
// propagate. All are branch-free in the data (branches only on public
// widths).

/// Taint-preserving value cast: cast<u16>(w) is static_cast<u16> for plain
/// w and re-wraps Tainted words without touching the taint bit.
template <typename U, typename W>
constexpr rebind_t<W, U> cast(const W& w) {
  if constexpr (is_tainted_v<W>) {
    return Tainted<U>(static_cast<U>(w.raw()), w.tainted());
  } else {
    return static_cast<U>(w);
  }
}

/// v mod 2^bits, as the u64 analog of W.
template <typename W>
constexpr rebind_t<W, u64> low_bits_g(const W& v, unsigned bits) {
  return cast<u64>(v) & mask64(bits);
}

/// Two's-complement encoding of a signed value into `bits` bits.
template <typename W>
constexpr rebind_t<W, u64> to_twos_complement_g(const W& v, unsigned bits) {
  return cast<u64>(v) & mask64(bits);
}

/// Sign-extend the low `bits` bits of v — branch-free ((x ^ m) - m).
template <typename W>
constexpr rebind_t<W, i64> sign_extend_g(const W& v, unsigned bits) {
  const u64 m = u64{1} << (bits - 1);
  const auto x = low_bits_g(v, bits);
  return cast<i64>(x ^ m) - static_cast<i64>(m);
}

/// Centered representative mod 2^qbits in [-2^(qbits-1), 2^(qbits-1)).
template <typename W>
constexpr rebind_t<W, i64> centered_g(const W& v, unsigned qbits) {
  return sign_extend_g(cast<u64>(v), qbits);
}

/// Rotate-left of the u64 analog (public amount; r == 0 handled without
/// touching the data). A u64xN vector word rotates each of its lanes.
template <typename W>
constexpr auto rotl_g(const W& v, unsigned r) {
  const auto x = [&] {
    if constexpr (is_u64xN_v<W>) {
      return v;
    } else {
      return cast<u64>(v);
    }
  }();
  if (r == 0) return x;
  return (x << r) | (x >> (64u - r));
}

/// All-ones u64 mask iff the sign bit of the i64 analog is set (branch-free
/// "is negative" predicate; the usual building block for ct selects).
template <typename W>
constexpr rebind_t<W, u64> sign_mask_g(const W& v) {
  return cast<u64>(cast<i64>(v) >> 63);
}

}  // namespace saber::ct
