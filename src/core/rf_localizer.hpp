#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bayes_grid.hpp"
#include "geom/vec2.hpp"
#include "obs/counters.hpp"
#include "phy/pdf_table.hpp"

namespace cocoa::core {

/// One received RF beacon, as seen by a blind robot: the anchor coordinates
/// carried in the packet plus the measured RSSI.
struct BeaconObservation {
    geom::Vec2 anchor_position;
    double rssi_dbm = 0.0;
};

/// A completed position fix.
struct Fix {
    geom::Vec2 position;
    int beacons_used = 0;       ///< observations whose RSSI had a usable PDF bin
    double posterior_spread_m = 0.0;  ///< RMS spread / residual (confidence)
};

/// Which estimator turns beacon observations into a fix. §5: "CoCoA is not
/// tied to a specific localization technique ... Other approaches could be
/// integrated in CoCoA as well" — these are drop-in alternatives sharing the
/// PDF Table for RSSI->distance conversion.
enum class RfTechnique {
    BayesianGrid,      ///< the paper's choice (Sichitiu & Ramadurai, Eqs. 1-3)
    WeightedCentroid,  ///< cheap baseline: distance-weighted anchor centroid
    LeastSquares,      ///< Gauss-Newton multilateration on ranged distances
};

/// Computes window-end position fixes from collected beacons, per §2.2:
/// start from the uniform prior, fold in one constraint per beacon via the
/// PDF Table, and — if at least `min_beacons` usable beacons were heard —
/// return the posterior mean as the fix.
class RfLocalizer {
  public:
    struct Options {
        RfTechnique technique = RfTechnique::BayesianGrid;
        int min_beacons = 3;
        /// Beacons weaker than this are ignored outright.
        double rssi_cutoff_dbm = -std::numeric_limits<double>::infinity();
        /// Also use PDF bins whose Gaussian fit failed (the Fig. 1(b)
        /// regime). Defaults to on: the paper's algorithm looks up the PDF
        /// table for *every* received beacon — §4.3.1 explicitly observes
        /// that "bad beacons received from long distances" can deteriorate
        /// accuracy, which only happens if they are used. The wide fitted
        /// Gaussians of far bins act as weak constraints that disambiguate
        /// single-anchor ring posteriors; occasionally they mislead (the
        /// paper's T = 10 s anomaly). Disable for the Gaussian-only ablation.
        bool use_non_gaussian_bins = true;
    };

    /// `kernels` (the PDF table) must share grid_config's floor_fraction.
    RfLocalizer(const GridConfig& grid_config, std::shared_ptr<const KernelBank> kernels,
                Options options);
    RfLocalizer(const GridConfig& grid_config, std::shared_ptr<const KernelBank> kernels);

    /// Runs Eqs. (1)-(3) over the observations. Returns std::nullopt when
    /// fewer than min_beacons observations had usable PDF bins (the robot
    /// then keeps its previous estimate, as the paper prescribes).
    std::optional<Fix> compute_fix(const std::vector<BeaconObservation>& observations);

    /// The posterior of the most recent compute_fix call (diagnostics).
    const BayesGrid& grid() const { return grid_; }
    const Options& options() const { return options_; }
    const KernelBank& kernels() const { return *kernels_; }

    struct Stats {
        std::uint64_t fixes = 0;
        std::uint64_t rejected_too_few = 0;
        std::uint64_t beacons_without_bin = 0;   ///< RSSI outside the PDF table
        std::uint64_t beacons_non_gaussian = 0;  ///< skipped Fig. 1(b) bins
    };
    const Stats& stats() const { return stats_; }
    /// Restores checkpointed counters verbatim. The grid itself is transient
    /// (compute_fix resets it to uniform before every use) and needs no state.
    void set_stats(const Stats& s) { stats_ = s; }

    /// Registers this localizer's counters under `prefix`
    /// (e.g. "node.3.localizer.").
    void register_counters(obs::CounterRegistry& registry,
                           const std::string& prefix) const {
        registry.add(prefix + "fixes", &stats_.fixes);
        registry.add(prefix + "rejected_too_few", &stats_.rejected_too_few);
        registry.add(prefix + "beacons_without_bin", &stats_.beacons_without_bin);
        registry.add(prefix + "beacons_non_gaussian", &stats_.beacons_non_gaussian);
    }

  private:
    /// One admitted observation after PDF-table filtering.
    struct RangedBeacon {
        geom::Vec2 anchor;
        std::size_t bin = 0;      ///< index of the PDF bin in the table
        double distance_m = 0.0;  ///< the PDF bin's fitted mean
        double sigma_m = 0.0;     ///< the bin's fitted sigma
    };

    Fix bayesian_fix(const std::vector<RangedBeacon>& beacons);
    Fix centroid_fix(const std::vector<RangedBeacon>& beacons) const;
    Fix least_squares_fix(const std::vector<RangedBeacon>& beacons) const;

    BayesGrid grid_;
    std::shared_ptr<const KernelBank> kernels_;
    Options options_;
    Stats stats_;
};

}  // namespace cocoa::core
