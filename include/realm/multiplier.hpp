// Common interface of every multiplier model in the library.
//
// All designs evaluated in the paper are combinational unsigned N×N integer
// multipliers; behaviorally each is just a pure function
// (a, b) -> approximate product.  The virtual interface lets the error
// harness, the JPEG application, and the design-space sweep treat REALM and
// the ten baselines uniformly.
//
// The compute contract is one scalar reference plus three batched shapes:
// multiply() is the readable, paper-faithful datapath; multiply_batch
// (pairwise), multiply_row_batch (one fixed operand) and multiply_row_range
// (one fixed operand, ascending contiguous columns) must each be
// bit-identical to it.  There are no default loops: every library design
// generates all three shapes from a single prepare/apply/segment definition
// through DatapathMultiplier (realm/datapath_multiplier.hpp), and any other
// subclass implements them itself.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace realm {

class Multiplier {
 public:
  Multiplier() = default;
  Multiplier(const Multiplier&) = default;
  Multiplier& operator=(const Multiplier&) = default;
  Multiplier(Multiplier&&) = default;
  Multiplier& operator=(Multiplier&&) = default;
  virtual ~Multiplier() = default;

  /// Approximate (or exact) product of two unsigned width()-bit operands.
  /// Operands wider than width() bits are a precondition violation; models
  /// assert in debug builds.
  [[nodiscard]] virtual std::uint64_t multiply(std::uint64_t a,
                                               std::uint64_t b) const = 0;

  /// Element-wise product of two operand vectors: out[i] = multiply(a[i],
  /// b[i]) for i in [0, n).  The result must be bit-identical to n scalar
  /// multiply() calls — the error harness relies on that equivalence.
  /// `out` may alias neither `a` nor `b`.
  virtual void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                              std::uint64_t* out, std::size_t n) const = 0;

  /// Fixed-operand row product: out[i] = multiply(a_fixed, b[i]) for i in
  /// [0, n), bit-identical to n scalar calls.  This is the shape of the
  /// exhaustive engine and of the application panels (one constant operand
  /// per row); implementations compute the fixed operand's half of the
  /// datapath once per call.  `out` may not alias `b`.
  virtual void multiply_row_batch(std::uint64_t a_fixed, const std::uint64_t* b,
                                  std::uint64_t* out, std::size_t n) const = 0;

  /// Contiguous-column row product: out[i] = multiply(a_fixed, b0 + i) for
  /// i in [0, n), bit-identical to the scalar loop.  Exhaustive sweeps walk
  /// ascending column ranges, so the variable operand's leading-one position
  /// is constant over each power-of-two interval; implementations run a
  /// constant-shift loop per interval.  `out` must not overlap the range.
  virtual void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                  std::uint64_t* out, std::size_t n) const = 0;

  /// Human-readable design name including its configuration,
  /// e.g. "REALM16 (t=4)" or "DRUM (k=6)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Operand width N in bits.
  [[nodiscard]] virtual int width() const = 0;
};

}  // namespace realm
