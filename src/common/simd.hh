/**
 * @file
 * Portable width-W lane batch for lockstep execution.
 *
 * DoubleBatch<W> is a plain W-lane double value type with lane-wise
 * arithmetic: every operator applies the identical scalar operation
 * to each lane independently, in lane order, with no cross-lane
 * reduction and no reassociation. That is the property the batched
 * solver and transient kernels rely on for bit-identity — lane l of
 * a batched computation executes exactly the floating-point op
 * sequence the scalar code would execute for that problem, so
 * extracting lane l reproduces the scalar result bit for bit.
 *
 * Storage is chosen for the register allocator, not just the
 * vector units. A width is built recursively from named lo/hi halves
 * that bottom out in a two-lane GCC/Clang vector (`vector_size(16)`),
 * one SSE2/NEON register. Both the obvious alternatives defeat scalar
 * replacement in GCC and cost the batched envelope solver stack
 * round-trips per matrix entry: a `double[W]` array member is never
 * promoted, and a single wide 32/64-byte generic vector is legalised
 * through stack slots on 128-bit baselines. The nested-struct form
 * keeps every half in a register. Widths are powers of two from 2
 * up; the kernels use 2, 4 and 8.
 *
 * When the target has 256-bit registers (`__AVX__`, e.g. a
 * -DTG_ARCH=x86-64-v3 build) the four-lane base case is a single
 * `vector_size(32)` vector instead of two 16-byte halves, so width-4
 * batches occupy one YMM register and width-8 batches two. The lane
 * values are unchanged — only the register carve-up differs — and
 * bit-identity with the portable build is preserved because the
 * whole project compiles with -ffp-contract=off: no a*b+c is ever
 * contracted into an FMA, on either tier, in either the batched or
 * the scalar path. No intrinsics and no std::fma anywhere; every
 * lane executes the exact scalar op sequence.
 */

#ifndef TG_COMMON_SIMD_HH
#define TG_COMMON_SIMD_HH

#include <algorithm>
#include <cstddef>

namespace tg {

/** Lanes per lockstep chunk: the widest kernel instantiated. */
inline constexpr int kLockstepLanes = 8;

/**
 * The lockstep batch rule, the one every multi-lane kernel follows:
 * `count` lanes go kLockstepLanes at a time, and a chunk of `live`
 * lanes runs the narrowest kernel width W of 2, 4 and 8 that holds
 * it. For each chunk in order this calls
 * fn.template operator()<W>(first, live), lanes [first, first + live).
 * The caller fills the W - live spare lanes (with copies of the
 * chunk's last lane) and drops their results. Lanes never interact,
 * so every chunking gives each lane its scalar bits.
 */
template <class Fn>
void
forEachLockstepChunk(std::size_t count, Fn &&fn)
{
    static_assert(kLockstepLanes == 8, "kernel ladder is 2/4/8");
    for (std::size_t first = 0; first < count; first += kLockstepLanes) {
        const std::size_t live =
            std::min<std::size_t>(count - first, kLockstepLanes);
        if (live > 4)
            fn.template operator()<8>(first, live);
        else if (live > 2)
            fn.template operator()<4>(first, live);
        else
            fn.template operator()<2>(first, live);
    }
}

namespace detail {

constexpr bool
isPow2(int w)
{
    return w > 0 && (w & (w - 1)) == 0;
}

/**
 * Lane storage for W lanes: named halves, `lo` holding lanes
 * [0, W/2) and `hi` the rest, contiguous in memory. Named members —
 * unlike an array of halves or one wide generic vector — survive
 * GCC's scalar replacement, so accumulators of any width live
 * entirely in registers. The recursion ends at the full
 * specializations below, which every variant's member-function
 * vocabulary mirrors so DoubleBatch is layout-agnostic.
 */
template <int W>
struct LaneStore
{
    static_assert(W >= 4 && isPow2(W), "recursive storage width");
    LaneStore<W / 2> lo, hi;

    double get(int l) const
    {
        return l < W / 2 ? lo.get(l) : hi.get(l - W / 2);
    }
    void loadFrom(const double *p)
    {
        lo.loadFrom(p);
        hi.loadFrom(p + W / 2);
    }
    void storeTo(double *p) const
    {
        lo.storeTo(p);
        hi.storeTo(p + W / 2);
    }
    void fill(double s)
    {
        lo.fill(s);
        hi.fill(s);
    }
    void add(const LaneStore &o)
    {
        lo.add(o.lo);
        hi.add(o.hi);
    }
    void sub(const LaneStore &o)
    {
        lo.sub(o.lo);
        hi.sub(o.hi);
    }
    void mul(const LaneStore &o)
    {
        lo.mul(o.lo);
        hi.mul(o.hi);
    }
    void div(const LaneStore &o)
    {
        lo.div(o.lo);
        hi.div(o.hi);
    }
    void muls(double s)
    {
        lo.muls(s);
        hi.muls(s);
    }
    void divs(double s)
    {
        lo.divs(s);
        hi.divs(s);
    }
    void maxOf(const LaneStore &a, const LaneStore &b)
    {
        lo.maxOf(a.lo, b.lo);
        hi.maxOf(a.hi, b.hi);
    }
};

/** Base case: two lanes in one native 16-byte vector register. */
template <>
struct LaneStore<2>
{
    typedef double Vec2 __attribute__((vector_size(16)));
    /**
     * Unaligned-view twin of Vec2 for memory traffic: element
     * alignment only, plus may_alias so dereferencing a cast
     * double* is sanctioned under TBAA. A plain memcpy here baits
     * GCC into staging wide batches through 16-byte stack copies
     * (a store-forwarding stall per matrix entry on AVX builds);
     * the unaligned vector type compiles to one movupd/vmovupd.
     */
    typedef double Vec2U
        __attribute__((vector_size(16), aligned(8), may_alias));
    Vec2 v;

    double get(int l) const { return v[l]; }
    void loadFrom(const double *p)
    {
        v = *reinterpret_cast<const Vec2U *>(p);
    }
    void storeTo(double *p) const
    {
        *reinterpret_cast<Vec2U *>(p) = v;
    }
    void fill(double s)
    {
        v[0] = s;
        v[1] = s;
    }
    void add(const LaneStore &o) { v += o.v; }
    void sub(const LaneStore &o) { v -= o.v; }
    void mul(const LaneStore &o) { v *= o.v; }
    void div(const LaneStore &o) { v /= o.v; }
    void muls(double s) { v *= s; }
    void divs(double s) { v /= s; }
    /** std::max per lane: exactly (a < b ? b : a). */
    void maxOf(const LaneStore &a, const LaneStore &b)
    {
        v = (a.v < b.v) ? b.v : a.v;
    }
};

#if defined(__AVX__)

/**
 * Four lanes in one native 32-byte vector register. On AVX targets
 * this full specialization replaces the lo/hi recursion at width 4,
 * so the recursion for W >= 8 bottoms out here instead of at the
 * two-lane case: width 8 becomes two YMM registers.
 * Exists only when the target really has 256-bit registers —
 * on 128-bit baselines GCC would legalise it through stack slots.
 */
template <>
struct LaneStore<4>
{
    typedef double Vec4 __attribute__((vector_size(32)));
    /** Unaligned view for loads/stores — see LaneStore<2>::Vec2U. */
    typedef double Vec4U
        __attribute__((vector_size(32), aligned(8), may_alias));
    Vec4 v;

    double get(int l) const { return v[l]; }
    void loadFrom(const double *p)
    {
        v = *reinterpret_cast<const Vec4U *>(p);
    }
    void storeTo(double *p) const
    {
        *reinterpret_cast<Vec4U *>(p) = v;
    }
    void fill(double s)
    {
        v[0] = s;
        v[1] = s;
        v[2] = s;
        v[3] = s;
    }
    void add(const LaneStore &o) { v += o.v; }
    void sub(const LaneStore &o) { v -= o.v; }
    void mul(const LaneStore &o) { v *= o.v; }
    void div(const LaneStore &o) { v /= o.v; }
    void muls(double s) { v *= s; }
    void divs(double s) { v /= s; }
    /** std::max per lane: exactly (a < b ? b : a). */
    void maxOf(const LaneStore &a, const LaneStore &b)
    {
        v = (a.v < b.v) ? b.v : a.v;
    }
};

#endif // __AVX__

} // namespace detail

template <int W>
struct DoubleBatch
{
    static_assert(W >= 2 && detail::isPow2(W),
                  "batch width must be a power of two >= 2");

    detail::LaneStore<W> s;

    static constexpr int width() { return W; }

    /** All lanes set to `v`. */
    static DoubleBatch broadcast(double v)
    {
        DoubleBatch b;
        b.s.fill(v);
        return b;
    }

    /** Load W contiguous doubles from `p` (no alignment assumed). */
    static DoubleBatch load(const double *p)
    {
        DoubleBatch b;
        b.s.loadFrom(p);
        return b;
    }

    /** Store W contiguous doubles to `p` (no alignment assumed). */
    void store(double *p) const
    {
        s.storeTo(p);
    }

    /**
     * Per-lane extract (by value: vector-extension elements are not
     * addressable on Clang, so there is no mutable reference form —
     * mutate lanes through load/store or whole-batch operators).
     */
    double operator[](int l) const { return s.get(l); }

    DoubleBatch &operator+=(const DoubleBatch &o)
    {
        s.add(o.s);
        return *this;
    }
    DoubleBatch &operator-=(const DoubleBatch &o)
    {
        s.sub(o.s);
        return *this;
    }
    DoubleBatch &operator*=(const DoubleBatch &o)
    {
        s.mul(o.s);
        return *this;
    }
    DoubleBatch &operator/=(const DoubleBatch &o)
    {
        s.div(o.s);
        return *this;
    }

    friend DoubleBatch operator+(DoubleBatch a, const DoubleBatch &b)
    {
        return a += b;
    }
    friend DoubleBatch operator-(DoubleBatch a, const DoubleBatch &b)
    {
        return a -= b;
    }
    friend DoubleBatch operator*(DoubleBatch a, const DoubleBatch &b)
    {
        return a *= b;
    }
    friend DoubleBatch operator/(DoubleBatch a, const DoubleBatch &b)
    {
        return a /= b;
    }

    /** Lane-wise a*s (scalar broadcast on the right). */
    friend DoubleBatch operator*(DoubleBatch a, double s)
    {
        a.s.muls(s);
        return a;
    }
    friend DoubleBatch operator*(double s, DoubleBatch a)
    {
        return a * s;
    }

    /** Lane-wise a/s. */
    friend DoubleBatch operator/(DoubleBatch a, double s)
    {
        a.s.divs(s);
        return a;
    }

    /**
     * Lane-wise std::max — exactly (a < b ? b : a) per lane, the
     * accumulation step of the scalar droop scans (including the
     * NaN and signed-zero behaviour of that exact ternary).
     */
    static DoubleBatch max(const DoubleBatch &a, const DoubleBatch &b)
    {
        DoubleBatch r;
        r.s.maxOf(a.s, b.s);
        return r;
    }
};

} // namespace tg

#endif // TG_COMMON_SIMD_HH
