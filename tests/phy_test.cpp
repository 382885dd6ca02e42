#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "phy/channel.hpp"
#include "phy/pdf_table.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {
namespace {

using cocoa::sim::RandomStream;
using cocoa::sim::RngManager;

TEST(Channel, MeanRssiMonotonicallyDecreasing) {
    const Channel ch;
    double prev = ch.mean_rssi_dbm(1.0);
    for (double d = 2.0; d <= 300.0; d += 1.0) {
        const double cur = ch.mean_rssi_dbm(d);
        EXPECT_LT(cur, prev) << "at d=" << d;
        prev = cur;
    }
}

TEST(Channel, CalibratedToPaperAnchors) {
    const Channel ch;
    // The paper: RSSI values down to -80 dBm correspond to distances up to
    // ~40 m, and 802.11b cards reach beyond 150 m.
    EXPECT_NEAR(ch.mean_rssi_dbm(40.0), -80.0, 1.0);
    EXPECT_GT(ch.max_range_m(), 150.0);
    EXPECT_LT(ch.max_range_m(), 200.0);
}

TEST(Channel, BelowReferenceDistanceClamps) {
    const Channel ch;
    EXPECT_DOUBLE_EQ(ch.mean_rssi_dbm(0.1), ch.mean_rssi_dbm(1.0));
}

TEST(Channel, SigmaRampsBeyondBreakpoint) {
    const Channel ch;
    const auto& cfg = ch.config();
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(10.0), cfg.shadowing_sigma_near_db);
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(cfg.breakpoint_m), cfg.shadowing_sigma_near_db);
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(1000.0), cfg.shadowing_sigma_far_db);
}

TEST(Channel, FadeOnlyBeyondBreakpoint) {
    const Channel ch;
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(10.0), 0.0);
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(40.0), 0.0);
    EXPECT_GT(ch.fade_mean_db(50.0), 0.0);
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(500.0), ch.config().fade_mean_far_db);
    // Ramp is monotone.
    EXPECT_LT(ch.fade_mean_db(45.0), ch.fade_mean_db(55.0));
}

TEST(Channel, SampleNearFieldIsUnbiased) {
    const Channel ch;
    RandomStream rng(1);
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += ch.sample_rssi_dbm(20.0, rng);
    EXPECT_NEAR(sum / kN, ch.mean_rssi_dbm(20.0), 0.2);
}

TEST(Channel, SampleFarFieldBiasedDownByFades) {
    const Channel ch;
    RandomStream rng(1);
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += ch.sample_rssi_dbm(100.0, rng);
    // Mean sample = path-loss mean - fade mean.
    EXPECT_NEAR(sum / kN, ch.mean_rssi_dbm(100.0) - ch.fade_mean_db(100.0), 0.5);
}

TEST(Channel, ThresholdHelpers) {
    const Channel ch;
    EXPECT_TRUE(ch.decodable(ch.config().rx_sensitivity_dbm));
    EXPECT_FALSE(ch.decodable(ch.config().rx_sensitivity_dbm - 0.1));
    EXPECT_TRUE(ch.sensed(ch.config().carrier_sense_dbm));
    EXPECT_FALSE(ch.sensed(ch.config().carrier_sense_dbm - 0.1));
    EXPECT_GT(ch.carrier_sense_range_m(), ch.max_range_m());
}

TEST(Channel, RangeInversionConsistent) {
    const Channel ch;
    EXPECT_NEAR(ch.mean_rssi_dbm(ch.max_range_m()), ch.config().rx_sensitivity_dbm, 0.01);
}

TEST(Channel, InvalidConfigThrows) {
    ChannelConfig c;
    c.breakpoint_m = 0.5;  // <= ref distance
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.sigma_ramp_end_m = 10.0;  // < breakpoint
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.exponent_near = -1.0;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
}

TEST(Channel, RejectsNonFiniteFields) {
    // Configs also arrive from checkpoint blobs. Before this gate a NaN
    // clamp or tx power, or carrier_sense_dbm = +inf, was accepted and
    // silently produced a 1 m influence radius that culled every receiver.
    using C = ChannelConfig;
    double C::*const fields[] = {
        &C::tx_power_dbm,       &C::ref_distance_m,
        &C::ref_loss_db,        &C::exponent_near,
        &C::exponent_far,       &C::breakpoint_m,
        &C::sigma_ramp_end_m,   &C::shadowing_sigma_near_db,
        &C::fade_mean_far_db,   &C::shadowing_sigma_far_db,
        &C::rx_sensitivity_dbm, &C::carrier_sense_dbm,
        &C::shadowing_clamp_sigmas};
    const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
        for (const double v : bad) {
            ChannelConfig c;
            c.*fields[f] = v;
            EXPECT_THROW(Channel{c}, std::invalid_argument) << "field " << f << " = " << v;
        }
    }
}

TEST(Channel, RejectsNegativeShadowingSigmasAndFadeMean) {
    // A negative sigma makes the clamp's lo exceed its hi (undefined
    // behaviour in std::clamp); a negative fade mean is no distribution.
    ChannelConfig c;
    c.shadowing_sigma_near_db = -0.5;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.shadowing_sigma_far_db = -1.0;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.fade_mean_far_db = -7.0;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    // Zero is a legitimate deterministic channel (the MAC tests use it).
    c = ChannelConfig{};
    c.shadowing_sigma_near_db = 0.0;
    c.shadowing_sigma_far_db = 0.0;
    c.fade_mean_far_db = 0.0;
    EXPECT_NO_THROW(Channel{c});
}

TEST(Channel, SplitSampleIsBitwiseAndFadeSkipNeverFlipsSensing) {
    // sample_rssi_from is faded(shadowed(...)) on one generator, and a
    // shadowed power that misses carrier sense (even before any loss
    // attenuation is subtracted) stays below it once faded: the medium's
    // fade skip cannot change a verdict.
    const Channel ch;
    sim::SplitMix64 pick(77);
    int skipped = 0;
    for (std::uint64_t key = 0; key < 20000; ++key) {
        const double d = 30.0 + static_cast<double>(pick() % 200);
        const double atten = static_cast<double>(pick() % 4);
        sim::SplitMix64 a(key);
        sim::SplitMix64 b(key);
        const double full = ch.sample_rssi_dbm(d, a);
        const double shadowed =
            ch.shadowed_rssi_dbm(ch.mean_rssi_dbm(d), ch.shadowing_sigma_db(d), b);
        EXPECT_EQ(ch.faded_rssi_dbm(shadowed, ch.fade_mean_db(d), b), full);
        if (!ch.sensed(shadowed - atten)) {
            ++skipped;
            EXPECT_FALSE(ch.sensed(full - atten)) << "d=" << d << " key=" << key;
        }
    }
    EXPECT_GT(skipped, 0);
}

// --- PDF table / calibration ------------------------------------------------

class PdfTableFixture : public ::testing::Test {
  protected:
    static const PdfTable& table() {
        static const PdfTable t = PdfTable::calibrate(
            Channel{}, CalibrationConfig{}, RngManager(7).stream("calibration"));
        return t;
    }
};

TEST_F(PdfTableFixture, HasUsableBins) {
    EXPECT_GT(table().usable_bin_count(), 40u);
    EXPECT_LT(table().min_rssi_dbm(), -90);
    EXPECT_GT(table().max_rssi_dbm(), -45);
}

TEST_F(PdfTableFixture, GaussianRegimeBoundaryNearPaperValue) {
    // Paper: the Gaussian assumption holds "for signal strength values up to
    // -80dbm, which correspond to physical distances of up to 40 meters".
    const auto boundary = table().weakest_gaussian_rssi();
    ASSERT_TRUE(boundary.has_value());
    EXPECT_LE(*boundary, -74);
    EXPECT_GE(*boundary, -84);
    const DistancePdf* pdf = table().lookup(*boundary);
    ASSERT_NE(pdf, nullptr);
    EXPECT_NEAR(pdf->mean_m, 40.0, 12.0);
}

TEST_F(PdfTableFixture, Fig1aStrongBinIsGaussian) {
    // Fig. 1(a): RSSI = -52 dBm has a clean Gaussian distance PDF.
    const DistancePdf* pdf = table().lookup(-52.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_TRUE(pdf->gaussian_fit_ok);
    EXPECT_GT(pdf->mean_m, 2.0);
    EXPECT_LT(pdf->mean_m, 12.0);
    EXPECT_LT(pdf->sigma_m, 2.0);
}

TEST_F(PdfTableFixture, Fig1bWeakBinIsNotGaussian) {
    // Fig. 1(b): RSSI = -86 dBm can no longer be approximated by a Gaussian.
    const DistancePdf* pdf = table().lookup(-86.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_FALSE(pdf->gaussian_fit_ok);
    EXPECT_GT(pdf->sigma_m, 8.0);  // broad
}

TEST_F(PdfTableFixture, MeansMonotoneInRssi) {
    // Weaker signal => larger fitted distance, across the usable range.
    double prev = 0.0;
    for (int rssi = table().max_rssi_dbm(); rssi >= table().min_rssi_dbm(); --rssi) {
        const DistancePdf* pdf = table().lookup(rssi);
        if (pdf == nullptr || !pdf->gaussian_fit_ok) continue;
        EXPECT_GE(pdf->mean_m, prev - 0.5) << "at rssi=" << rssi;
        prev = std::max(prev, pdf->mean_m);
    }
}

TEST_F(PdfTableFixture, GaussianRegimeIsContiguous) {
    bool seen_fail = false;
    for (int rssi = table().max_rssi_dbm(); rssi >= table().min_rssi_dbm(); --rssi) {
        const DistancePdf* pdf = table().lookup(rssi);
        if (pdf == nullptr) continue;
        if (!pdf->gaussian_fit_ok) seen_fail = true;
        if (seen_fail) {
            EXPECT_FALSE(pdf->gaussian_fit_ok) << "regime not contiguous at " << rssi;
        }
    }
}

TEST_F(PdfTableFixture, LookupOutOfRangeIsNull) {
    EXPECT_EQ(table().lookup(0.0), nullptr);
    EXPECT_EQ(table().lookup(-200.0), nullptr);
}

TEST_F(PdfTableFixture, LookupRoundsToNearestBin) {
    const DistancePdf* a = table().lookup(-52.4);
    const DistancePdf* b = table().lookup(-52.0);
    EXPECT_EQ(a, b);
    const DistancePdf* c = table().lookup(-52.6);
    const DistancePdf* d = table().lookup(-53.0);
    EXPECT_EQ(c, d);
}

TEST_F(PdfTableFixture, DensityIntegratesToOne) {
    const DistancePdf* pdf = table().lookup(-60.0);
    ASSERT_NE(pdf, nullptr);
    double integral = 0.0;
    const double step = 0.01;
    for (double d = pdf->mean_m - 8.0 * pdf->sigma_m; d <= pdf->mean_m + 8.0 * pdf->sigma_m;
         d += step) {
        integral += pdf->density(d) * step;
    }
    EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST_F(PdfTableFixture, DensityPeaksAtMean) {
    const DistancePdf* pdf = table().lookup(-55.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_GT(pdf->density(pdf->mean_m), pdf->density(pdf->mean_m + pdf->sigma_m));
    EXPECT_NEAR(pdf->density(pdf->mean_m),
                1.0 / (pdf->sigma_m * std::sqrt(2.0 * 3.14159265358979323846)), 1e-9);
}

TEST_F(PdfTableFixture, FittedMeanTracksChannelInversion) {
    // For a strong RSSI r, the fitted mean distance should be close to the
    // deterministic inversion of the path-loss curve.
    const Channel ch;
    for (const int rssi : {-50, -60, -70}) {
        const DistancePdf* pdf = table().lookup(rssi);
        ASSERT_NE(pdf, nullptr);
        // Invert: find d with mean_rssi(d) == rssi (bisection).
        double lo = 1.0, hi = 200.0;
        for (int i = 0; i < 50; ++i) {
            const double mid = 0.5 * (lo + hi);
            (ch.mean_rssi_dbm(mid) > rssi ? lo : hi) = mid;
        }
        EXPECT_NEAR(pdf->mean_m, lo, std::max(1.0, 0.15 * lo)) << "rssi=" << rssi;
    }
}

TEST(PdfTable, CalibrationValidation) {
    const Channel ch;
    CalibrationConfig c;
    c.max_distance_m = 0.5;  // < min
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
    c = CalibrationConfig{};
    c.samples_per_distance = 0;
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
    c = CalibrationConfig{};
    c.distance_step_m = -1.0;
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
}

TEST(PdfTable, DeterministicForSameStream) {
    const Channel ch;
    const PdfTable a = PdfTable::calibrate(ch, {}, RandomStream(5));
    const PdfTable b = PdfTable::calibrate(ch, {}, RandomStream(5));
    ASSERT_EQ(a.bin_count(), b.bin_count());
    EXPECT_EQ(a.min_rssi_dbm(), b.min_rssi_dbm());
    for (std::size_t i = 0; i < a.bins().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.bins()[i].mean_m, b.bins()[i].mean_m);
        EXPECT_EQ(a.bins()[i].gaussian_fit_ok, b.bins()[i].gaussian_fit_ok);
    }
}

TEST(PdfTable, ThinBinsUnusable) {
    const Channel ch;
    CalibrationConfig c;
    c.samples_per_distance = 1;
    c.distance_step_m = 10.0;  // very sparse calibration
    c.min_bin_samples = 50;
    const PdfTable t = PdfTable::calibrate(ch, c, RandomStream(3));
    EXPECT_EQ(t.usable_bin_count(), 0u);
    EXPECT_EQ(t.lookup(-60.0), nullptr);
}

TEST(PdfTable, SaveLoadRoundTrip) {
    const Channel ch;
    const PdfTable original =
        PdfTable::calibrate(ch, {}, RngManager(7).stream("calibration"));
    std::stringstream buffer;
    original.save(buffer);
    const PdfTable restored = PdfTable::load(buffer);

    ASSERT_EQ(restored.bin_count(), original.bin_count());
    EXPECT_EQ(restored.min_rssi_dbm(), original.min_rssi_dbm());
    EXPECT_EQ(restored.usable_bin_count(), original.usable_bin_count());
    EXPECT_EQ(restored.weakest_gaussian_rssi(), original.weakest_gaussian_rssi());
    for (std::size_t i = 0; i < original.bins().size(); ++i) {
        EXPECT_DOUBLE_EQ(restored.bins()[i].mean_m, original.bins()[i].mean_m);
        EXPECT_DOUBLE_EQ(restored.bins()[i].sigma_m, original.bins()[i].sigma_m);
        EXPECT_EQ(restored.bins()[i].gaussian_fit_ok, original.bins()[i].gaussian_fit_ok);
        EXPECT_EQ(restored.bins()[i].sample_count, original.bins()[i].sample_count);
    }
    // Lookups behave identically, including the unusable-bin rule.
    for (int rssi = -110; rssi <= -30; ++rssi) {
        const auto* a = original.lookup(rssi);
        const auto* b = restored.lookup(rssi);
        ASSERT_EQ(a == nullptr, b == nullptr) << "rssi " << rssi;
        if (a != nullptr) {
            EXPECT_DOUBLE_EQ(a->mean_m, b->mean_m);
        }
    }
}

TEST(PdfTable, LoadRejectsGarbage) {
    std::stringstream bad1("not-a-table 1\n");
    EXPECT_THROW(PdfTable::load(bad1), std::invalid_argument);
    std::stringstream bad2("cocoa-pdf-table 2\n");
    EXPECT_THROW(PdfTable::load(bad2), std::invalid_argument);
    std::stringstream bad3("cocoa-pdf-table 1\n-90 5 50\n1.0 2.0 1 60\n");  // truncated
    EXPECT_THROW(PdfTable::load(bad3), std::invalid_argument);
    std::stringstream bad4("cocoa-pdf-table 1\n-90 0 50\n");  // zero bins
    EXPECT_THROW(PdfTable::load(bad4), std::invalid_argument);
}

// A loaded bin must describe a distance distribution the grid localizer can
// tabulate: sigma = 1e300 used to load fine and then overflow the kernel's
// squared-distance band into a NaN interval count.
TEST(PdfTable, LoadRejectsUnbuildableBins) {
    const auto table_with_bin = [](const std::string& bin) {
        return "cocoa-pdf-table 1\n-60 2 50\n30.0 4.0 1 80 0.1 0.2\n" + bin + "\n";
    };
    std::stringstream good(table_with_bin("25.0 3.0 1 90 0.1 0.2"));
    EXPECT_EQ(PdfTable::load(good).usable_bin_count(), 2u);
    std::stringstream unused(table_with_bin("0 0 0 0 0 0"));  // never calibrated
    EXPECT_EQ(PdfTable::load(unused).usable_bin_count(), 1u);
    for (const char* bin : {"25.0 1e300 1 90 0.1 0.2", "1e300 3.0 1 90 0.1 0.2",
                            "25.0 -3.0 1 90 0.1 0.2", "-25.0 3.0 1 90 0.1 0.2"}) {
        std::stringstream bad(table_with_bin(bin));
        EXPECT_THROW(PdfTable::load(bad), std::invalid_argument) << bin;
    }
}

// Boundary stability across calibration seeds: the Gaussian regime edge must
// stay in the paper's neighbourhood regardless of the measurement run.
class CalibrationSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalibrationSeedSweep, RegimeBoundaryStable) {
    const PdfTable t =
        PdfTable::calibrate(Channel{}, {}, RngManager(GetParam()).stream("calibration"));
    const auto boundary = t.weakest_gaussian_rssi();
    ASSERT_TRUE(boundary.has_value());
    EXPECT_LE(*boundary, -72);
    EXPECT_GE(*boundary, -86);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u, 23u));

// --- shadowing clamp and max-influence range --------------------------------

/// A rigged generator satisfying the sample_rssi_dbm template contract,
/// returning a fixed (huge) shadowing deviate and zero fades.
struct RiggedRng {
    double gaussian_value = 0.0;
    double gaussian(double mean, double stddev) {
        return mean + gaussian_value * stddev;
    }
    double exponential(double) { return 0.0; }
};

TEST(Channel, ShadowingClampBoundsSampledRssi) {
    const Channel ch;
    const double clamp = ch.config().shadowing_clamp_sigmas;
    RiggedRng rng;
    rng.gaussian_value = 1e6;  // a "draw" far beyond any real deviate
    for (const double d : {5.0, 40.0, 100.0, 500.0, 2000.0}) {
        const double cap = ch.mean_rssi_dbm(d) + clamp * ch.shadowing_sigma_db(d);
        EXPECT_DOUBLE_EQ(ch.sample_rssi_dbm(d, rng), cap) << "d=" << d;
    }
    rng.gaussian_value = 2.0;  // an ordinary deviate passes through unclamped
    EXPECT_DOUBLE_EQ(ch.sample_rssi_dbm(40.0, rng),
                     ch.mean_rssi_dbm(40.0) + 2.0 * ch.shadowing_sigma_db(40.0));
}

TEST(Channel, MaxInfluenceRangeIsConservative) {
    const Channel ch;
    const double r = ch.max_influence_range_m();
    EXPECT_GT(r, ch.carrier_sense_range_m());
    // At the influence range the *best possible* draw just reaches the
    // carrier-sense threshold...
    const double sigma_max = std::max(ch.config().shadowing_sigma_near_db,
                                      ch.config().shadowing_sigma_far_db);
    EXPECT_NEAR(ch.mean_rssi_dbm(r) + ch.config().shadowing_clamp_sigmas * sigma_max,
                ch.config().carrier_sense_dbm, 1e-6);
    // ...and beyond it, even a maximal clamped draw stays below threshold, so
    // culled radios can never sense the frame.
    RiggedRng rng;
    rng.gaussian_value = 1e6;
    for (double d = r * 1.0001; d < r * 4.0; d *= 1.5) {
        EXPECT_LT(ch.sample_rssi_dbm(d, rng), ch.config().carrier_sense_dbm);
    }
}

TEST(Channel, InvalidClampThrows) {
    ChannelConfig cfg;
    cfg.shadowing_clamp_sigmas = 0.0;
    EXPECT_THROW(Channel{cfg}, std::invalid_argument);
}

TEST(Channel, SplitMixDrawsMatchStreamDistributions) {
    // The SplitMix64 URBG plugs into the same std distributions as the
    // mt19937_64 streams; sanity-check its gaussian/exponential moments.
    sim::SplitMix64 rng(12345);
    double sum = 0.0, sum_sq = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.gaussian(5.0, 2.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kN;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(std::sqrt(sum_sq / kN - mean * mean), 2.0, 0.1);
    double esum = 0.0;
    for (int i = 0; i < kN; ++i) esum += rng.exponential(7.0);
    EXPECT_NEAR(esum / kN, 7.0, 0.3);
}

}  // namespace
}  // namespace cocoa::phy
