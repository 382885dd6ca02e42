#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "phy/channel.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {

/// The per-RSSI distance distribution stored in one PDF Table bin.
///
/// The paper's offline calibration fits a Gaussian PDF of distance for every
/// observed RSSI value and notes (Fig. 1) that the fit is good up to about
/// -80 dBm (~40 m) and breaks down beyond. We record the fitted moments plus
/// a Gaussianity flag derived from higher moments of the calibration samples.
struct DistancePdf {
    double mean_m = 0.0;
    double sigma_m = 0.0;
    bool gaussian_fit_ok = false;  ///< Fig. 1(a) regime vs Fig. 1(b) regime
    int sample_count = 0;
    double skewness = 0.0;
    double excess_kurtosis = 0.0;

    /// Gaussian density at `distance_m` (not floored; callers add their own
    /// floor when using it as a Bayesian constraint).
    double density(double distance_m) const;
};

/// Parameters of the offline calibration pass. Mirrors the paper's outdoor
/// measurement campaign, run against the synthetic channel instead of the
/// real field: sweep transmitter-receiver distances, record many RSSI
/// observations per distance, then bin by integer dBm and fit.
struct CalibrationConfig {
    double min_distance_m = 1.0;
    double max_distance_m = 160.0;    ///< roughly the channel's nominal range
    double distance_step_m = 0.25;
    int samples_per_distance = 100;
    int min_bin_samples = 50;         ///< bins with fewer samples are unusable
    /// |skew| above this fails the Gaussian fit. "Gaussian" here is the
    /// paper's practical judgement (Fig. 1(a) "looks Gaussian"), not a strict
    /// hypothesis test: distance-given-RSSI is mildly lognormal (skew ~0.3)
    /// even in the clean regime, while the faded far regime shows skew > 1.2.
    /// The effective threshold is additionally widened to 3 standard errors
    /// for thin bins.
    double skewness_threshold = 0.9;
    double kurtosis_threshold = 2.0;  ///< |excess kurtosis|, same SE widening
    /// Enforce the paper's structure: the Gaussian regime is one contiguous
    /// band of strong RSSIs ("up to -80 dBm"); isolated statistical flukes on
    /// either side of the boundary are healed to match their neighbourhood.
    bool enforce_contiguous_regime = true;
};

/// The PDF Table of Sichitiu & Ramadurai's algorithm (§2.2): maps every RSSI
/// value (binned at 1 dBm) to a distance PDF. Stored at each robot; the
/// Bayesian localizer performs a lookup per received beacon.
class PdfTable {
  public:
    /// Builds the table by measuring `channel` per `config`. Deterministic
    /// for a given RNG stream.
    static PdfTable calibrate(const Channel& channel, const CalibrationConfig& config,
                              sim::RandomStream rng);

    /// The bin covering `rssi_dbm`, or nullptr when the RSSI is outside the
    /// table or its bin had too few calibration samples to be usable.
    const DistancePdf* lookup(double rssi_dbm) const;

    /// Inclusive integer-dBm bounds of the table.
    int min_rssi_dbm() const { return min_rssi_; }
    int max_rssi_dbm() const { return min_rssi_ + static_cast<int>(bins_.size()) - 1; }

    std::size_t bin_count() const { return bins_.size(); }
    std::size_t usable_bin_count() const;

    /// Weakest RSSI whose bin still passes the Gaussian fit — the paper's
    /// "-80 dBm" boundary between Fig. 1(a) and Fig. 1(b).
    std::optional<int> weakest_gaussian_rssi() const;

    /// All bins (index 0 is min_rssi_dbm()); unusable bins have
    /// sample_count < min_bin_samples.
    const std::vector<DistancePdf>& bins() const { return bins_; }

    /// Writes the table in a line-oriented text format: calibration is an
    /// offline phase, so a real deployment stores this file on every robot
    /// (§2.2: "the PDF Table, which is stored at each node").
    void save(std::ostream& os) const;

    /// Parses a table produced by save(). Throws std::invalid_argument on a
    /// malformed stream or a bin whose moments are negative, non-finite or
    /// too large to square.
    static PdfTable load(std::istream& is);

  private:
    PdfTable(int min_rssi, std::vector<DistancePdf> bins)
        : min_rssi_(min_rssi), bins_(std::move(bins)) {}

    int min_rssi_ = 0;
    std::vector<DistancePdf> bins_;
    int min_bin_samples_ = 0;
};

}  // namespace cocoa::phy
