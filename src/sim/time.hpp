/**
 * @file
 * Simulated time for the discrete-event kernel.
 *
 * Time is kept in integer picoseconds so that CPU-cycle arithmetic at
 * 2.8 GHz (357.14 ps per cycle) never accumulates rounding drift over
 * multi-second simulations. An int64 count of picoseconds covers about
 * 106 days of simulated time, far beyond any experiment in the paper.
 */

#ifndef SRIOV_SIM_TIME_HPP
#define SRIOV_SIM_TIME_HPP

#include <cmath>
#include <cstdint>
#include <compare>
#include <string>

namespace sriov::sim {

/** A point in (or span of) simulated time, in integer picoseconds. */
class Time
{
  public:
    constexpr Time() : ps_(0) {}

    /** @name Named constructors. @{ */
    static constexpr Time ps(std::int64_t v) { return Time(v); }
    static constexpr Time ns(std::int64_t v) { return Time(v * 1000); }
    static constexpr Time us(std::int64_t v) { return Time(v * 1000000); }
    static constexpr Time ms(std::int64_t v) { return Time(v * 1000000000LL); }
    static constexpr Time sec(std::int64_t v)
    {
        return Time(v * 1000000000000LL);
    }
    /** Fractional seconds (for configuration convenience). */
    static Time seconds(double v) { return Time(roundPs(v * 1e12)); }
    /** Duration of @p cycles CPU cycles at @p hz. */
    static Time
    cycles(double cycles, double hz)
    {
        return Time(roundPs(cycles / hz * 1e12));
    }
    /** Duration to move @p bits over a link running at @p bits_per_sec. */
    static Time
    transfer(double bits, double bits_per_sec)
    {
        return Time(roundPs(bits / bits_per_sec * 1e12));
    }
    /** @} */

    /**
     * std::llround(@p ps), bit for bit, without the libm call: round
     * half away from zero. For |ps| < 2^63 the cast truncates toward
     * zero and `ps - t` is exact (t shares ps's sign and, when
     * nonzero, lies in [ps/2, ps], so Sterbenz's lemma applies), so
     * comparing the exact fraction against +-0.5 rounds exactly —
     * unlike floor(ps + 0.5), which rounds 0.49999999999999994 up.
     * Values from 2^52 on are integers and the fraction is 0. NaN and
     * out-of-range values take libm's path, whatever it returns.
     */
    static std::int64_t
    roundPs(double ps)
    {
        if (!(ps >= -0x1p63 && ps < 0x1p63)) [[unlikely]]
            return std::int64_t(std::llround(ps));
        auto t = static_cast<std::int64_t>(ps);
        double frac = ps - static_cast<double>(t);
        return t + std::int64_t(frac >= 0.5) - std::int64_t(frac <= -0.5);
    }

    constexpr std::int64_t picos() const { return ps_; }
    constexpr double toSeconds() const { return double(ps_) * 1e-12; }
    constexpr double toMicros() const { return double(ps_) * 1e-6; }

    /** Number of CPU cycles this span covers at @p hz. */
    double toCycles(double hz) const { return toSeconds() * hz; }

    constexpr auto operator<=>(const Time &) const = default;

    constexpr Time operator+(Time o) const { return Time(ps_ + o.ps_); }
    constexpr Time operator-(Time o) const { return Time(ps_ - o.ps_); }
    constexpr Time &operator+=(Time o) { ps_ += o.ps_; return *this; }
    constexpr Time &operator-=(Time o) { ps_ -= o.ps_; return *this; }
    constexpr Time operator*(std::int64_t k) const { return Time(ps_ * k); }
    constexpr Time operator/(std::int64_t k) const { return Time(ps_ / k); }

    /** Human-readable rendering, e.g. "12.5us". */
    std::string toString() const;

    static constexpr Time max() { return Time(INT64_MAX); }

  private:
    explicit constexpr Time(std::int64_t v) : ps_(v) {}

    std::int64_t ps_;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_TIME_HPP
