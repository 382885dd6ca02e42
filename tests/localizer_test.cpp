#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/rf_localizer.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"

namespace cocoa::core {
namespace {

using cocoa::geom::Vec2;
using cocoa::sim::RandomStream;
using cocoa::sim::RngManager;

class LocalizerFixture : public ::testing::Test {
  protected:
    /// One calibrated table and its kernel bank, shared by every test.
    static std::shared_ptr<const KernelBank> kernels() {
        static auto bank = std::make_shared<const KernelBank>(
            std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
                phy::Channel{}, {}, RngManager(7).stream("calibration"))),
            GridConfig{}.floor_fraction);
        return bank;
    }

    static GridConfig grid() {
        GridConfig g;
        g.area = geom::Rect::square(200.0);
        g.cell_m = 2.0;
        return g;
    }

    /// Beacons from anchors around `truth`, with RSSI sampled from the channel.
    std::vector<BeaconObservation> beacons_around(const Vec2& truth,
                                                  const std::vector<Vec2>& anchors,
                                                  int per_anchor = 3) {
        const phy::Channel ch;
        std::vector<BeaconObservation> obs;
        for (const Vec2& a : anchors) {
            for (int k = 0; k < per_anchor; ++k) {
                obs.push_back({a, ch.sample_rssi_dbm(geom::distance(a, truth), rng_)});
            }
        }
        return obs;
    }

    RandomStream rng_{RngManager(3).stream("test")};
};

TEST_F(LocalizerFixture, RequiresTable) {
    EXPECT_THROW(RfLocalizer(grid(), nullptr), std::invalid_argument);
}

TEST_F(LocalizerFixture, RequiresPositiveMinBeacons) {
    RfLocalizer::Options opt;
    opt.min_beacons = 0;
    EXPECT_THROW(RfLocalizer(grid(), kernels(), opt), std::invalid_argument);
}

TEST_F(LocalizerFixture, NoBeaconsNoFix) {
    RfLocalizer loc(grid(), kernels());
    EXPECT_FALSE(loc.compute_fix({}).has_value());
    EXPECT_EQ(loc.stats().rejected_too_few, 1u);
}

TEST_F(LocalizerFixture, FewerThanMinBeaconsNoFix) {
    // §2.2: "if the robot has received at least three beacon packets".
    RfLocalizer loc(grid(), kernels());
    const Vec2 truth{100.0, 100.0};
    auto obs = beacons_around(truth, {{110.0, 100.0}}, 2);  // only two beacons
    EXPECT_FALSE(loc.compute_fix(obs).has_value());
}

TEST_F(LocalizerFixture, ThreeGoodBeaconsLocalize) {
    RfLocalizer loc(grid(), kernels());
    const Vec2 truth{100.0, 100.0};
    const auto obs =
        beacons_around(truth, {{85.0, 100.0}, {110.0, 115.0}, {100.0, 80.0}}, 1);
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->beacons_used, 3);
    EXPECT_LT(geom::distance(fix->position, truth), 8.0);
}

TEST_F(LocalizerFixture, ManyAnchorsGiveTightFix) {
    RfLocalizer loc(grid(), kernels());
    const Vec2 truth{100.0, 100.0};
    const auto obs = beacons_around(
        truth, {{85.0, 100.0}, {110.0, 115.0}, {100.0, 80.0}, {120.0, 95.0},
                {90.0, 120.0}},
        3);
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    EXPECT_LT(geom::distance(fix->position, truth), 4.0);
    EXPECT_LT(fix->posterior_spread_m, 15.0);
}

TEST_F(LocalizerFixture, RssiOutsideTableDoesNotCount) {
    RfLocalizer loc(grid(), kernels());
    std::vector<BeaconObservation> obs = {
        {{90.0, 100.0}, -20.0},  // impossibly strong: no bin
        {{110.0, 100.0}, -20.0},
        {{100.0, 90.0}, -20.0},
    };
    EXPECT_FALSE(loc.compute_fix(obs).has_value());
    EXPECT_EQ(loc.stats().beacons_without_bin, 3u);
}

TEST_F(LocalizerFixture, CutoffDropsWeakBeacons) {
    RfLocalizer::Options opt;
    opt.rssi_cutoff_dbm = -70.0;
    RfLocalizer loc(grid(), kernels(), opt);
    std::vector<BeaconObservation> obs = {
        {{90.0, 100.0}, -75.0},
        {{110.0, 100.0}, -75.0},
        {{100.0, 90.0}, -75.0},
    };
    EXPECT_FALSE(loc.compute_fix(obs).has_value());
    EXPECT_EQ(loc.stats().beacons_without_bin, 3u);
}

TEST_F(LocalizerFixture, GaussianOnlyModeSkipsFarBeacons) {
    RfLocalizer::Options opt;
    opt.use_non_gaussian_bins = false;
    RfLocalizer loc(grid(), kernels(), opt);
    // -88 dBm sits well inside the non-Gaussian regime.
    std::vector<BeaconObservation> obs = {
        {{90.0, 100.0}, -88.0},
        {{110.0, 100.0}, -88.0},
        {{100.0, 90.0}, -88.0},
    };
    EXPECT_FALSE(loc.compute_fix(obs).has_value());
    EXPECT_EQ(loc.stats().beacons_non_gaussian, 3u);
}

TEST_F(LocalizerFixture, DefaultModeUsesFarBeacons) {
    RfLocalizer loc(grid(), kernels());
    std::vector<BeaconObservation> obs = {
        {{30.0, 100.0}, -88.0},
        {{170.0, 100.0}, -88.0},
        {{100.0, 30.0}, -88.0},
    };
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->beacons_used, 3);
    // Three wide rings: coarse, but a proper estimate inside the area.
    EXPECT_TRUE(grid().area.contains(fix->position));
}

TEST_F(LocalizerFixture, FarBeaconsImproveSingleAnchorGeometry) {
    // The reason the default admits non-Gaussian bins: with one near anchor
    // (a ring posterior), far beacons break the ring's symmetry.
    const Vec2 truth{100.0, 100.0};
    const std::vector<Vec2> near = {{120.0, 100.0}};
    const std::vector<Vec2> far = {{30.0, 40.0}, {180.0, 160.0}, {40.0, 170.0}};

    RfLocalizer::Options gauss_only;
    gauss_only.use_non_gaussian_bins = false;
    RfLocalizer ring_loc(grid(), kernels(), gauss_only);
    RfLocalizer full_loc(grid(), kernels());

    double ring_err = 0.0;
    double full_err = 0.0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
        auto obs = beacons_around(truth, near, 3);
        const auto ring_fix = ring_loc.compute_fix(obs);
        ASSERT_TRUE(ring_fix.has_value());
        ring_err += geom::distance(ring_fix->position, truth);
        auto far_obs = beacons_around(truth, far, 3);
        obs.insert(obs.end(), far_obs.begin(), far_obs.end());
        const auto full_fix = full_loc.compute_fix(obs);
        ASSERT_TRUE(full_fix.has_value());
        full_err += geom::distance(full_fix->position, truth);
    }
    EXPECT_LT(full_err / kTrials, ring_err / kTrials);
}

TEST_F(LocalizerFixture, StatsCountFixes) {
    RfLocalizer loc(grid(), kernels());
    const Vec2 truth{100.0, 100.0};
    const auto obs =
        beacons_around(truth, {{85.0, 100.0}, {110.0, 115.0}, {100.0, 80.0}}, 2);
    EXPECT_TRUE(loc.compute_fix(obs).has_value());
    EXPECT_TRUE(loc.compute_fix(obs).has_value());
    EXPECT_FALSE(loc.compute_fix({}).has_value());
    EXPECT_EQ(loc.stats().fixes, 2u);
    EXPECT_EQ(loc.stats().rejected_too_few, 1u);
}

TEST_F(LocalizerFixture, SpreadReflectsGeometryQuality) {
    const Vec2 truth{100.0, 100.0};
    RfLocalizer loc(grid(), kernels());
    // Good geometry: anchors surrounding the truth.
    auto good =
        beacons_around(truth, {{85.0, 100.0}, {110.0, 115.0}, {100.0, 80.0}}, 2);
    const auto good_fix = loc.compute_fix(good);
    // Bad geometry: a single anchor (ring posterior).
    auto bad = beacons_around(truth, {{115.0, 100.0}}, 3);
    const auto bad_fix = loc.compute_fix(bad);
    ASSERT_TRUE(good_fix.has_value());
    ASSERT_TRUE(bad_fix.has_value());
    EXPECT_LT(good_fix->posterior_spread_m, bad_fix->posterior_spread_m);
}

TEST_F(LocalizerFixture, WeightedCentroidLocalizes) {
    RfLocalizer::Options opt;
    opt.technique = RfTechnique::WeightedCentroid;
    RfLocalizer loc(grid(), kernels(), opt);
    const Vec2 truth{100.0, 100.0};
    const auto obs = beacons_around(
        truth, {{90.0, 100.0}, {110.0, 110.0}, {100.0, 85.0}, {115.0, 95.0}}, 3);
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    // Coarse but sane: within the anchor neighbourhood.
    EXPECT_LT(geom::distance(fix->position, truth), 20.0);
}

TEST_F(LocalizerFixture, LeastSquaresLocalizesAccurately) {
    RfLocalizer::Options opt;
    opt.technique = RfTechnique::LeastSquares;
    RfLocalizer loc(grid(), kernels(), opt);
    const Vec2 truth{100.0, 100.0};
    const auto obs = beacons_around(
        truth, {{85.0, 100.0}, {110.0, 115.0}, {100.0, 80.0}, {120.0, 95.0}}, 3);
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    EXPECT_LT(geom::distance(fix->position, truth), 6.0);
}

TEST_F(LocalizerFixture, LeastSquaresBeatsCentroidOnGoodGeometry) {
    RfLocalizer::Options ls_opt;
    ls_opt.technique = RfTechnique::LeastSquares;
    RfLocalizer ls(grid(), kernels(), ls_opt);
    RfLocalizer::Options wc_opt;
    wc_opt.technique = RfTechnique::WeightedCentroid;
    RfLocalizer wc(grid(), kernels(), wc_opt);
    const Vec2 truth{100.0, 100.0};
    double ls_err = 0.0;
    double wc_err = 0.0;
    for (int trial = 0; trial < 15; ++trial) {
        const auto obs = beacons_around(
            truth, {{80.0, 100.0}, {110.0, 120.0}, {105.0, 75.0}, {125.0, 100.0}}, 2);
        ls_err += geom::distance(ls.compute_fix(obs)->position, truth);
        wc_err += geom::distance(wc.compute_fix(obs)->position, truth);
    }
    EXPECT_LT(ls_err, wc_err);
}

TEST_F(LocalizerFixture, TechniquesStayInsideArea) {
    for (const auto technique :
         {RfTechnique::BayesianGrid, RfTechnique::WeightedCentroid,
          RfTechnique::LeastSquares}) {
        RfLocalizer::Options opt;
        opt.technique = technique;
        RfLocalizer loc(grid(), kernels(), opt);
        // Anchors near a corner, robot outside their hull.
        const Vec2 truth{5.0, 5.0};
        const auto obs =
            beacons_around(truth, {{20.0, 5.0}, {5.0, 20.0}, {20.0, 20.0}}, 3);
        const auto fix = loc.compute_fix(obs);
        ASSERT_TRUE(fix.has_value());
        EXPECT_TRUE(grid().area.contains(fix->position));
    }
}

// Accuracy sweep across robot positions: with the paper's anchor density
// (25 anchors in 200 m x 200 m), fixes land within a few metres.
class LocalizerAccuracySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalizerAccuracySweep, FixWithinMetres) {
    const RngManager mgr(GetParam());
    auto table = std::make_shared<const phy::PdfTable>(
        phy::PdfTable::calibrate(phy::Channel{}, {}, mgr.stream("calibration")));
    GridConfig g;
    g.area = geom::Rect::square(200.0);
    g.cell_m = 2.0;
    RfLocalizer loc(g, std::make_shared<const KernelBank>(table, g.floor_fraction));
    auto rng = mgr.stream("beacons");
    const phy::Channel ch;

    const Vec2 truth{rng.uniform(20.0, 180.0), rng.uniform(20.0, 180.0)};
    std::vector<BeaconObservation> obs;
    for (int a = 0; a < 25; ++a) {
        const Vec2 anchor{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        for (int k = 0; k < 3; ++k) {
            const double rssi = ch.sample_rssi_dbm(geom::distance(anchor, truth), rng);
            if (rssi >= ch.config().rx_sensitivity_dbm) obs.push_back({anchor, rssi});
        }
    }
    const auto fix = loc.compute_fix(obs);
    ASSERT_TRUE(fix.has_value());
    EXPECT_LT(geom::distance(fix->position, truth), 20.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalizerAccuracySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

}  // namespace
}  // namespace cocoa::core
