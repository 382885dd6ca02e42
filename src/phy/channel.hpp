#pragma once

#include <algorithm>

#include "sim/random.hpp"

namespace cocoa::phy {

/// Radio channel calibrated to the paper's outdoor 802.11b measurements.
///
/// Dual-slope log-distance path loss with distance-dependent Gaussian
/// shadowing. Anchored to the paper's reported behaviour:
///  - RSSI about -80 dBm at 40 m, so signal-strength-to-distance PDFs are
///    Gaussian up to ~40 m (Fig. 1(a)),
///  - beyond 40 m multipath/fading dominates: the shadowing deviation ramps
///    up, producing the noisy non-Gaussian regime of Fig. 1(b),
///  - communication range > 150 m (typical 802.11b).
struct ChannelConfig {
    double tx_power_dbm = 15.0;
    double ref_distance_m = 1.0;
    double ref_loss_db = 45.0;             ///< path loss at ref_distance => -30 dBm at 1 m
    double exponent_near = 3.12;           ///< d <= breakpoint (tuned: -80 dBm at 40 m)
    double exponent_far = 2.0;             ///< d > breakpoint
    double breakpoint_m = 40.0;
    double shadowing_sigma_near_db = 1.5;  ///< d <= breakpoint
    double shadowing_sigma_far_db = 1.5;   ///< d >= sigma_ramp_end
    double sigma_ramp_end_m = 60.0;        ///< sigma ramps linearly across [breakpoint, this]
    /// Mean depth (dB) of multipath deep fades beyond the breakpoint, ramping
    /// from 0 at the breakpoint to this value at sigma_ramp_end. Fades only
    /// ever *attenuate* (exponential, one-sided), which is what makes the
    /// far-field RSSI-to-distance PDFs non-Gaussian (Fig. 1(b)) while leaving
    /// the strong-signal regime clean up to the breakpoint (Fig. 1(a)).
    double fade_mean_far_db = 7.0;
    double rx_sensitivity_dbm = -92.0;     ///< minimum power to decode a frame
    double carrier_sense_dbm = -98.0;      ///< minimum power to defer transmission
    /// Shadowing draws are clamped to ±this many sigma around the mean. A
    /// |z| > 8 Gaussian deviate has probability ~1e-15 per draw, so the clamp
    /// is statistically invisible — but it turns the otherwise unbounded
    /// shadowing tail into a hard bound on sampled RSSI, which is what lets
    /// max_influence_range_m() define an exact interference-culling radius
    /// (deep fades only ever attenuate, so they cannot extend the bound).
    double shadowing_clamp_sigmas = 8.0;
};

class Channel {
  public:
    /// Throws std::invalid_argument for configurations no radio can have:
    /// any non-finite field, a negative shadowing sigma or fade mean, a
    /// non-positive clamp, or an inverted distance geometry. Configs also
    /// arrive from checkpoint blobs, so this is the gate for those too.
    explicit Channel(const ChannelConfig& config = {});

    const ChannelConfig& config() const { return config_; }

    /// Deterministic mean received power (dBm) at `distance_m` (>= ref dist).
    double mean_rssi_dbm(double distance_m) const;

    /// Shadowing standard deviation (dB) at this distance.
    double shadowing_sigma_db(double distance_m) const;

    /// Mean deep-fade attenuation (dB) at this distance (0 below breakpoint).
    double fade_mean_db(double distance_m) const;

    /// One stochastic RSSI observation from precomputed channel terms — the
    /// exact operation sequence of sample_rssi_dbm, split out so callers that
    /// batch-compute mean/sigma/fade over many receivers (the medium's fanout
    /// kernels) draw bitwise-identical values to the distance-based overload.
    template <typename Rng>
    double sample_rssi_from(double mean_dbm, double sigma_db, double fade_db,
                            Rng& rng) const {
        return faded_rssi_dbm(shadowed_rssi_dbm(mean_dbm, sigma_db, rng), fade_db, rng);
    }

    /// First half of sample_rssi_from: the mean plus one clamped shadowing
    /// draw. Because fades only attenuate, a caller whose verdict is already
    /// "not sensed" at this power may skip faded_rssi_dbm (and its draw)
    /// without changing any verdict.
    template <typename Rng>
    double shadowed_rssi_dbm(double mean_dbm, double sigma_db, Rng& rng) const {
        const double cap = config_.shadowing_clamp_sigmas * sigma_db;
        const double shadow = std::clamp(rng.gaussian(0.0, sigma_db), -cap, cap);
        return mean_dbm + shadow;
    }

    /// Second half of sample_rssi_from: one deep-fade draw (none when
    /// `fade_db` is zero), subtracted from the shadowed power.
    template <typename Rng>
    double faded_rssi_dbm(double shadowed_dbm, double fade_db, Rng& rng) const {
        if (fade_db > 0.0) {
            shadowed_dbm -= rng.exponential(fade_db);  // deep fades only ever attenuate
        }
        return shadowed_dbm;
    }

    /// One stochastic RSSI observation. Templated over the generator so the
    /// same draw logic serves both the long-lived mt19937_64 streams (PDF
    /// calibration) and the throwaway counter-based SplitMix64 generators the
    /// medium constructs per (frame, receiver).
    template <typename Rng>
    double sample_rssi_dbm(double distance_m, Rng& rng) const {
        return sample_rssi_from(mean_rssi_dbm(distance_m),
                                shadowing_sigma_db(distance_m),
                                fade_mean_db(distance_m), rng);
    }

    /// Distance at which the mean RSSI equals the receive sensitivity: the
    /// nominal communication range.
    double max_range_m() const { return max_range_m_; }

    /// Distance at which the mean RSSI equals the carrier-sense threshold.
    double carrier_sense_range_m() const { return cs_range_m_; }

    /// Distance beyond which no sampled RSSI can ever reach the carrier-sense
    /// threshold: mean RSSI plus the maximum clamped shadowing boost stays
    /// strictly below carrier_sense_dbm. Radios farther than this from a
    /// transmitter are unaffected by the transmission — the exact culling
    /// radius used by mac::Medium's interference culling.
    double max_influence_range_m() const { return influence_range_m_; }

    bool decodable(double rssi_dbm) const { return rssi_dbm >= config_.rx_sensitivity_dbm; }
    bool sensed(double rssi_dbm) const { return rssi_dbm >= config_.carrier_sense_dbm; }

  private:
    double solve_range(double threshold_dbm) const;

    ChannelConfig config_;
    double max_range_m_ = 0.0;
    double cs_range_m_ = 0.0;
    double influence_range_m_ = 0.0;
};

}  // namespace cocoa::phy
