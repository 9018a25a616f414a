// Generic Montgomery (CIOS) modular arithmetic for odd BigInt moduli.
//
// Paillier encryption/decryption is modexp-bound; the schoolbook
// ModMul+DivMod reduction in BigInt::ModExp costs a full Knuth-D division
// per multiply. Montgomery's reduction replaces the division with two
// limb-level multiply-accumulate passes, a ~3-6x speedup at the 1024- to
// 3072-bit sizes PEOS uses. BigInt::ModExp and BigInt::ModMul dispatch
// here automatically for odd moduli (through a per-thread context cache);
// this header is public for callers that want to pin the per-modulus
// precomputation to a key object (PaillierPublicKey/PaillierPrivateKey do)
// and for hot loops that need the allocation-free kernel layer.
//
// Kernel notes:
//  * MulInto is a fused single-pass CIOS (multiply and reduce share one
//    inner loop, one store per limb per outer step).
//  * SqrInto is a dedicated squaring kernel: half the off-diagonal
//    products plus a separate SOS reduction (~1.5 n^2 vs 2 n^2 word
//    multiplies), worth ~25% on the square-dominated modexp ladder.
//  * ModExp uses a sliding window (width 2-6 chosen from the exponent
//    size) over odd-power tables, all on caller-free scratch.
//  * MulManyInto/SqrManyInto process K independent operand sets per pass
//    (interleaved carry chains portably; behind runtime dispatch, 8 lanes
//    of 32-bit digits on AVX2 or of 52-bit digits on AVX-512 IFMA) — the
//    multi-ciphertext fast path for workloads like packed CRT decryption
//    that always hold a column of independent values.
//  * Ct* kernels are the constant-time tier for secret exponents: fixed
//    flow, branchless reduction, fixed-window ModExp with a full table
//    scan per window. See docs/ARCHITECTURE.md ("Crypto kernels") for
//    the exact ct contract.

#ifndef SHUFFLEDP_CRYPTO_MONTGOMERY_H_
#define SHUFFLEDP_CRYPTO_MONTGOMERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bigint.h"
#include "util/status.h"

namespace shuffledp {
namespace crypto {

/// Batch-kernel implementation tiers (MulManyInto/SqrManyInto/
/// CtModExpManyInto). The portable tier interleaves K scalar CIOS carry
/// chains in one loop; the AVX2 tier runs 8 ciphertext lanes as two
/// 4-lane vectors of 32-bit digits; the IFMA tier runs 8 lanes of 52-bit
/// digits through vpmadd52{lo,hi}uq at the widths the keys use (8, 16,
/// 32, 48 and 64 limbs) and hands other widths to the AVX2 kernels. Same
/// dispatch shape as AesBackend/ShaBackend in aes.h/sha256.h.
enum class MontBackend {
  kPortable,  ///< interleaved scalar lanes (always available)
  kAvx2,      ///< 8-lane 32-bit-digit CIOS via AVX2
  kIfma,      ///< 8-lane 52-bit-digit CIOS via AVX-512 IFMA (+ AVX2)
};

/// Best backend the host supports (ifma, then avx2, then portable).
/// Honors SHUFFLEDP_FORCE_PORTABLE=1.
MontBackend BestMontBackend();

/// Backend the batch kernels currently use (defaults to BestMontBackend()).
MontBackend ActiveMontBackend();

/// Overrides the active backend; silently degrades ifma -> avx2 ->
/// portable when the host lacks the requested ISA (everything degrades to
/// portable under SHUFFLEDP_FORCE_PORTABLE=1). Returns the backend
/// actually selected.
MontBackend SetMontBackend(MontBackend backend);

const char* MontBackendName(MontBackend backend);

/// Precomputed Montgomery context for a fixed odd modulus. Immutable after
/// Create, so one context can be shared across threads.
class MontgomeryCtx {
 public:
  /// Pre: `modulus` is odd and > 1 (checked by Create).
  static Result<MontgomeryCtx> Create(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  /// Limb width of the kernel layer (= modulus limb count).
  size_t limbs() const { return limbs_; }

  /// a * R mod m (R = 2^(64*limbs)).
  BigInt ToMont(const BigInt& a) const;

  /// a * R^-1 mod m.
  BigInt FromMont(const BigInt& a) const;

  /// Montgomery product: a * b * R^-1 mod m (both in Montgomery form).
  BigInt MontMul(const BigInt& a, const BigInt& b) const;

  /// Montgomery square: a^2 * R^-1 mod m (a in Montgomery form).
  BigInt MontSqr(const BigInt& a) const;

  /// Plain-domain modular product a * b mod m (inputs reduced internally;
  /// two Montgomery multiplies, no division).
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

  /// Full modular exponentiation base^exp mod m (plain-domain input and
  /// output; sliding-window over Montgomery-form odd powers).
  /// Variable-time in the exponent — never use with secret exponents;
  /// CtModExp is the constant-time tier.
  BigInt ModExp(const BigInt& base, const BigInt& exponent) const;

  /// Constant-time modular exponentiation for secret exponents
  /// (plain-domain input and output). Fixed-window ladder with a full
  /// table scan per window: no secret-dependent branches or memory
  /// addresses. `exp_bits` is the public exponent-width bound driving the
  /// (uniform) schedule; 0 means "use exponent.BitLength()", which leaks
  /// only the bit length — pass an explicit bound when even that must
  /// stay hidden. exp_bits may exceed BitLength (high zero windows
  /// multiply by the Montgomery one, an identity).
  BigInt CtModExp(const BigInt& base, const BigInt& exponent,
                  size_t exp_bits = 0) const;

  // --- Allocation-free kernel layer -------------------------------------
  //
  // Operands are raw little-endian limb vectors of exactly limbs() words
  // holding Montgomery-form values < modulus. `out` may alias any input
  // (kernels accumulate into scratch and write `out` last). Not part of
  // the stable API.

  /// Caller-owned scratch shared by every kernel (reuse across calls to
  /// avoid per-multiply allocation; cheap to construct, not thread-safe).
  class Scratch {
   public:
    explicit Scratch(const MontgomeryCtx& ctx) { EnsureFor(ctx); }

    /// Empty scratch for deferred sizing (thread_local workspaces that
    /// serve contexts of several widths); call EnsureFor before use.
    Scratch() = default;

    /// Grows the buffer to ctx's kernel requirement (never shrinks).
    void EnsureFor(const MontgomeryCtx& ctx) { EnsureLanes(ctx, 1); }

    /// Grows the buffer to the batch-kernel requirement for `lanes`
    /// concurrent operand sets (never shrinks). The single-operand
    /// kernels need lanes = 1.
    void EnsureLanes(const MontgomeryCtx& ctx, size_t lanes) {
      const size_t need = lanes * (2 * ctx.limbs() + 2);
      if (buf_.size() < need) buf_.resize(need);
    }

   private:
    friend class MontgomeryCtx;
    std::vector<uint64_t> buf_;
  };

  /// out = a * b * R^-1 mod m (fused CIOS).
  void MulInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
               Scratch* scratch) const;

  /// out = a^2 * R^-1 mod m (dedicated squaring + SOS reduction).
  void SqrInto(const uint64_t* a, uint64_t* out, Scratch* scratch) const;

  // --- Batch kernels ----------------------------------------------------
  //
  // K independent operand sets per pass, dispatched through
  // ActiveMontBackend(). Results are bitwise identical to K scalar calls
  // (every kernel returns the canonical representative < m). Lane count k
  // is arbitrary (internally chunked); scratch must be sized with
  // EnsureLanes(ctx, min(k, kMaxBatchLanes)). Aliasing: out[l] may alias
  // the inputs of its own lane (in-place update), and one input buffer
  // may be shared by any number of lanes, but out[l] must not alias an
  // input of a *different* lane — lanes are processed in chunks, so an
  // earlier lane's output write could clobber a later lane's input. The
  // out pointers themselves must be pairwise distinct.

  /// Preferred lane-block size for callers that chunk their own columns.
  static constexpr size_t kMaxBatchLanes = 8;

  /// out[l] = a[l] * b[l] * R^-1 mod m for l in [0, k).
  void MulManyInto(size_t k, const uint64_t* const* a,
                   const uint64_t* const* b, uint64_t* const* out,
                   Scratch* scratch) const;

  /// out[l] = a[l]^2 * R^-1 mod m for l in [0, k).
  void SqrManyInto(size_t k, const uint64_t* const* a, uint64_t* const* out,
                   Scratch* scratch) const;

  /// out[l] = ToMont(*a[l]) for plain-domain BigInts. An input below R^2
  /// (at most 2*limbs() words, e.g. an N^2 ciphertext entering the p^2
  /// context) is split as hi*R + lo and reduced without a division:
  /// lo*R^2 and hi*R^3 run as k-lane multiplies, then one modular add.
  /// Wider inputs go through BigInt::Mod first.
  void ToMontManyInto(size_t k, const BigInt* const* a, uint64_t* const* out,
                      Scratch* scratch) const;

  // --- Constant-time kernels --------------------------------------------
  //
  // Fixed control flow and memory-access pattern regardless of operand
  // values: the CIOS pass is inherently fixed-flow, and the final
  // correction is a branchless full-width subtract + masked select
  // instead of the early-exit compare in the variable-time tier.

  /// Constant-time out = a * b * R^-1 mod m.
  void CtMulInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                 Scratch* scratch) const;

  /// Constant-time out = a^2 * R^-1 mod m (routed through CtMulInto: the
  /// dedicated squaring kernel's carry-propagation loop is data-dependent
  /// and stays in the variable-time tier).
  void CtSqrInto(const uint64_t* a, uint64_t* out, Scratch* scratch) const;

  /// Constant-time batch multiply: out[l] = a[l] * b[l] * R^-1 mod m,
  /// with the branchless final reduction on every lane. 8-lane blocks run
  /// on the active vector backend. Lane pointers and scratch as in
  /// MulManyInto.
  void CtMulManyInto(size_t k, const uint64_t* const* a,
                     const uint64_t* const* b, uint64_t* const* out,
                     Scratch* scratch) const;

  /// Constant-time batch ModExp with one shared secret exponent: out[l] =
  /// base_mont[l]^exponent in Montgomery form (inputs already in
  /// Montgomery form, outputs stay there). The shared exponent makes the
  /// window schedule uniform across lanes, so the whole ladder runs on
  /// the interleaved batch kernels; on the IFMA tier each 8-lane block
  /// keeps its table and accumulator in radix 2^52 from entry to exit.
  /// `exp_bits` as in CtModExp (0 = use BitLength). scratch sized via
  /// EnsureLanes(ctx, min(k, kMaxBatchLanes)). Lane pointers as in
  /// MulManyInto.
  void CtModExpManyInto(size_t k, const uint64_t* const* base_mont,
                        const BigInt& exponent, size_t exp_bits,
                        uint64_t* const* out, Scratch* scratch) const;

  /// out = a * R mod m for plain-domain a (reduced mod m internally).
  void ToMontInto(const BigInt& a, uint64_t* out, Scratch* scratch) const;

  /// Montgomery-form limb vector -> plain-domain BigInt.
  BigInt FromMontLimbs(const uint64_t* a, Scratch* scratch) const;

  /// Montgomery form of 1 (R mod m) as a limbs()-long vector.
  const std::vector<uint64_t>& one_mont_limbs() const {
    return one_mont_limbs_;
  }

 private:
  MontgomeryCtx() = default;

  // Per-thread scratch + operand workspace backing the BigInt wrappers
  // (ModMul/MontMul/...), so the convenience layer stays allocation-free
  // apart from the returned BigInt. Kernels never call wrappers, so the
  // shared buffers cannot be re-entered.
  Scratch& ThreadScratch() const;
  std::vector<uint64_t>& ThreadOperand(int which) const;

  // REDC of the 2*limbs()+1-word buffer `t` (destroyed); out = t * R^-1
  // mod m, < modulus after the final conditional subtraction.
  void RedcInto(uint64_t* t, uint64_t* out) const;

  // Conditional subtract: out = v mod m for v < 2m given as n low words
  // plus the overflow word `hi` (0 or 1).
  void ReduceOnce(const uint64_t* v, uint64_t hi, uint64_t* out) const;

  // Branchless ReduceOnce (full-width subtract + masked select).
  void CtReduceOnce(const uint64_t* v, uint64_t hi, uint64_t* out) const;

  // Portable interleaved lane kernels (montgomery_batch.cpp). CT selects
  // the branchless final reduction.
  template <size_t K, bool CT>
  void MulManyPortable(const uint64_t* const* a, const uint64_t* const* b,
                       uint64_t* const* out, Scratch* scratch) const;
  template <size_t K>
  void SqrManyPortable(const uint64_t* const* a, uint64_t* const* out,
                       Scratch* scratch) const;

  // 8-lane AVX2 tier (lane count exactly 8); no-op stub on non-x86.
  // The vector CIOS pass is fixed-flow; `ct` selects the branchless
  // final reduction, making the kernel usable from the ct ladder (the
  // dispatch choice depends only on the public CPU feature set, never
  // on operand values).
  void MulMany8Avx2(const uint64_t* const* a, const uint64_t* const* b,
                    uint64_t* const* out, bool ct) const;

  // Dedicated 8-lane AVX2 Montgomery squaring: off-diagonal product scan
  // (half the multiplies of the generic CIOS), in-register doubling, then
  // the same deferred-carry SOS reduction as the portable squaring. Flow
  // is operand-independent; `ct` selects the branchless final reduction.
  void SqrMany8Avx2(const uint64_t* const* a, uint64_t* const* out,
                    bool ct) const;

  // 8-lane AVX-512 IFMA tier (montgomery_ifma.cpp; lane count exactly 8;
  // only when mod52_ is set). Radix-2^52 CIOS over k = mod52_.size()
  // digits with R' = 2^(52k); the first operand enters pre-shifted by
  // s = 52k - 64*limbs() bits, so a*2^s*b*R'^-1 = a*b*R^-1 and the
  // result is bitwise the other tiers'. Fixed flow with a masked final
  // subtraction, so it serves the ct and variable-time callers alike.
  void MulMany8Ifma(const uint64_t* const* a, const uint64_t* const* b,
                    uint64_t* const* out) const;

  // The CtModExpManyInto ladder for one 8-lane block, in radix 2^52 from
  // entry to exit: digits[win] is window win's exponent digit (w bits),
  // consumed from the top window down.
  void CtModExpMany8Ifma(const uint64_t* const* base_mont,
                         const uint64_t* digits, size_t nwin, unsigned w,
                         uint64_t* const* out) const;

  // Radix-2^52 digit count k of the IFMA kernels for a modulus of `limbs`
  // words, or 0 when no IFMA kernel is built for that width.
  static size_t IfmaDigitsFor(size_t limbs);

  // True when 8-lane blocks should take the IFMA kernels.
  bool UseIfma() const;

  BigInt modulus_;
  std::vector<uint64_t> mod_limbs_;
  std::vector<uint32_t> mod_digits_;      // mod as 2*limbs() 32-bit digits
  std::vector<uint64_t> one_mont_limbs_;  // R mod m
  std::vector<uint64_t> rr_limbs_;        // R^2 mod m
  std::vector<uint64_t> rrr_limbs_;       // R^3 mod m
  // IFMA tier operands in radix 2^52 (empty when the width has no IFMA
  // kernel).
  std::vector<uint64_t> mod52_;  // m
  std::vector<uint64_t> one52_;  // R' mod m, one in the IFMA ladder
  std::vector<uint64_t> r52_;    // R mod m, the ladder's exit factor
  size_t limbs_ = 0;
  uint64_t mu_ = 0;  // -m^{-1} mod 2^64
  BigInt rr_;        // R^2 mod m
  BigInt one_mont_;  // R mod m
};

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_MONTGOMERY_H_
