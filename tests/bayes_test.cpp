#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/bayes_grid.hpp"
#include "core/rf_localizer.hpp"
#include "core/grid_kernels.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"

namespace cocoa::core {
namespace {

using cocoa::geom::Rect;
using cocoa::geom::Vec2;

GridConfig paper_grid() {
    GridConfig g;
    g.area = Rect::square(200.0);
    g.cell_m = 2.0;
    return g;
}

phy::DistancePdf make_pdf(double mean, double sigma) {
    phy::DistancePdf pdf;
    pdf.mean_m = mean;
    pdf.sigma_m = sigma;
    pdf.gaussian_fit_ok = true;
    pdf.sample_count = 1000;
    return pdf;
}

/// The constraint kernel a grid with `floor_fraction` folds in for `pdf`.
RadialKernel kernel(const phy::DistancePdf& pdf,
                    double floor_fraction = GridConfig{}.floor_fraction) {
    return RadialKernel::for_pdf(pdf.mean_m, pdf.sigma_m, floor_fraction);
}

TEST(BayesGrid, DimensionsFromCellSize) {
    const BayesGrid g(paper_grid());
    EXPECT_EQ(g.nx(), 100u);
    EXPECT_EQ(g.ny(), 100u);
    EXPECT_EQ(g.cell_count(), 10000u);
    EXPECT_DOUBLE_EQ(g.cell_width(), 2.0);
}

TEST(BayesGrid, NonSquareArea) {
    GridConfig cfg;
    cfg.area = Rect::from_bounds(0.0, 0.0, 100.0, 50.0);
    cfg.cell_m = 5.0;
    const BayesGrid g(cfg);
    EXPECT_EQ(g.nx(), 20u);
    EXPECT_EQ(g.ny(), 10u);
}

TEST(BayesGrid, InvalidConfigThrows) {
    GridConfig cfg = paper_grid();
    cfg.cell_m = 0.0;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg = paper_grid();
    cfg.floor_fraction = 1.0;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg = paper_grid();
    cfg.floor_fraction = -0.1;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
}

TEST(BayesGrid, UniformPriorProperties) {
    const BayesGrid g(paper_grid());
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    // Eq. (3) over the uniform prior gives the area centre.
    const Vec2 mean = g.mean();
    EXPECT_NEAR(mean.x, 100.0, 1e-9);
    EXPECT_NEAR(mean.y, 100.0, 1e-9);
    // Every cell has identical mass.
    EXPECT_NEAR(g.mass_at(0, 0), 1.0 / 10000.0, 1e-15);
    EXPECT_NEAR(g.mass_at(99, 99), 1.0 / 10000.0, 1e-15);
}

TEST(BayesGrid, CellCentersCoverArea) {
    const BayesGrid g(paper_grid());
    EXPECT_EQ(g.cell_center(0, 0), Vec2(1.0, 1.0));
    EXPECT_EQ(g.cell_center(99, 99), Vec2(199.0, 199.0));
    EXPECT_EQ(g.cell_center(49, 0), Vec2(99.0, 1.0));
}

TEST(BayesGrid, ConstraintNormalizes) {
    BayesGrid g(paper_grid());
    g.apply_constraint({100.0, 100.0}, kernel(make_pdf(20.0, 3.0)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
}

TEST(BayesGrid, ConstraintConcentratesOnRing) {
    BayesGrid g(paper_grid());
    const Vec2 anchor{100.0, 100.0};
    g.apply_constraint(anchor, kernel(make_pdf(20.0, 3.0)));
    // A cell on the ring (distance 20 from the anchor) must beat one far off.
    const double on_ring = g.mass_at(60, 50);   // center (121, 101): d ~ 21
    const double off_ring = g.mass_at(80, 50);  // center (161, 101): d ~ 61
    EXPECT_GT(on_ring, 10.0 * off_ring);
}

TEST(BayesGrid, RingConstraintKeepsMeanNearAnchor) {
    // A single ring constraint is rotationally symmetric: the posterior mean
    // falls near the anchor itself (the ring's centroid).
    BayesGrid g(paper_grid());
    const Vec2 anchor{100.0, 100.0};
    g.apply_constraint(anchor, kernel(make_pdf(25.0, 3.0)));
    EXPECT_NEAR(g.mean().x, anchor.x, 1.0);
    EXPECT_NEAR(g.mean().y, anchor.y, 1.0);
    // But the spread is large: a ring is not a point estimate.
    EXPECT_GT(g.spread(), 15.0);
}

TEST(BayesGrid, ThreeAnchorsTriangulate) {
    // Eqs. (1)-(3): three ring constraints from well-placed anchors intersect
    // at the true position.
    BayesGrid g(paper_grid());
    const Vec2 truth{80.0, 120.0};
    const Vec2 anchors[] = {{60.0, 100.0}, {110.0, 130.0}, {85.0, 90.0}};
    for (const Vec2& a : anchors) {
        g.apply_constraint(a, kernel(make_pdf(geom::distance(a, truth), 2.0)));
    }
    EXPECT_NEAR(g.mean().x, truth.x, 2.5);
    EXPECT_NEAR(g.mean().y, truth.y, 2.5);
    // The constraint floor leaves a little mass everywhere, so the spread
    // cannot collapse to the ring-intersection width alone.
    EXPECT_LT(g.spread(), 15.0);
    // MAP agrees with the mean here.
    EXPECT_NEAR(g.map_estimate().x, truth.x, 4.0);
    EXPECT_NEAR(g.map_estimate().y, truth.y, 4.0);
}

TEST(BayesGrid, MoreBeaconsTightenPosterior) {
    const Vec2 truth{80.0, 120.0};
    const Vec2 anchors[] = {{60.0, 100.0}, {110.0, 130.0}, {85.0, 90.0},
                            {50.0, 140.0}, {120.0, 100.0}};
    BayesGrid g3(paper_grid());
    BayesGrid g5(paper_grid());
    int i = 0;
    for (const Vec2& a : anchors) {
        const auto pdf = make_pdf(geom::distance(a, truth), 3.0);
        if (i < 3) g3.apply_constraint(a, kernel(pdf));
        g5.apply_constraint(a, kernel(pdf));
        ++i;
    }
    EXPECT_LT(g5.spread(), g3.spread());
}

TEST(BayesGrid, SequentialUpdatesCommute) {
    // Bayes: the posterior is order-independent.
    const Vec2 a1{60.0, 100.0};
    const Vec2 a2{110.0, 130.0};
    BayesGrid fwd(paper_grid());
    fwd.apply_constraint(a1, kernel(make_pdf(30.0, 4.0)));
    fwd.apply_constraint(a2, kernel(make_pdf(40.0, 4.0)));
    BayesGrid rev(paper_grid());
    rev.apply_constraint(a2, kernel(make_pdf(40.0, 4.0)));
    rev.apply_constraint(a1, kernel(make_pdf(30.0, 4.0)));
    EXPECT_NEAR(fwd.mean().x, rev.mean().x, 1e-9);
    EXPECT_NEAR(fwd.mean().y, rev.mean().y, 1e-9);
}

TEST(BayesGrid, ResetRestoresUniform) {
    BayesGrid g(paper_grid());
    g.apply_constraint({100.0, 100.0}, kernel(make_pdf(20.0, 3.0)));
    g.reset_uniform();
    EXPECT_NEAR(g.mass_at(0, 0), 1.0 / 10000.0, 1e-15);
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
}

TEST(BayesGrid, ConflictingConstraintsStayProper) {
    // Two rings that cannot both hold (anchors 100 m apart, both claiming
    // distance 5 m): the floor keeps the posterior proper.
    BayesGrid g(paper_grid());
    g.apply_constraint({50.0, 100.0}, kernel(make_pdf(5.0, 1.0)));
    g.apply_constraint({150.0, 100.0}, kernel(make_pdf(5.0, 1.0)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    const Vec2 mean = g.mean();
    EXPECT_TRUE(paper_grid().area.contains(mean));
}

TEST(BayesGrid, ZeroSigmaConstraintThrows) {
    BayesGrid g(paper_grid());
    EXPECT_THROW(g.apply_constraint({0.0, 0.0}, kernel(make_pdf(10.0, 0.0))),
                 std::invalid_argument);
}

TEST(BayesGrid, AnchorOutsideAreaStillWorks) {
    // Beacons can come from robots slightly outside the blind robot's grid
    // model (Eq. 1 only constrains (x, y) inside the deployment area).
    BayesGrid g(paper_grid());
    g.apply_constraint({-20.0, 100.0}, kernel(make_pdf(30.0, 3.0)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    // Mass concentrates near the area edge closest to the ring.
    EXPECT_LT(g.mean().x, 60.0);
}

TEST(BayesGrid, MeanAlwaysInsideArea) {
    BayesGrid g(paper_grid());
    for (int i = 0; i < 5; ++i) {
        g.apply_constraint({200.0 * (i % 2 ? 1.0 : 0.0), 40.0 * i},
                           kernel(make_pdf(10.0 + 20.0 * i, 2.0 + i)));
        EXPECT_TRUE(paper_grid().area.contains(g.mean()));
    }
}

// Property sweep (Eq. 2 invariants): for a range of anchor geometries and PDF
// widths, the posterior stays normalized, its mean stays in the area, and a
// correct constraint never pushes the estimate further from the truth than
// the prior's worst case.
class GridPropertySweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GridPropertySweep, PosteriorInvariants) {
    const auto [anchor_x, sigma] = GetParam();
    const Vec2 truth{120.0, 80.0};
    const Vec2 anchor{anchor_x, 60.0};
    BayesGrid g(paper_grid());
    g.apply_constraint(anchor, kernel(make_pdf(geom::distance(anchor, truth), sigma)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    EXPECT_TRUE(paper_grid().area.contains(g.mean()));
    EXPECT_GT(g.spread(), 0.0);
    EXPECT_LE(g.spread(), 120.0);
    // The ring passes through the truth: density near the truth must exceed
    // the uniform level.
    const auto ix = static_cast<std::size_t>(truth.x / 2.0);
    const auto iy = static_cast<std::size_t>(truth.y / 2.0);
    EXPECT_GT(g.mass_at(ix, iy), 0.5 / 10000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AnchorsAndWidths, GridPropertySweep,
    ::testing::Combine(::testing::Values(20.0, 60.0, 100.0, 140.0, 180.0),
                       ::testing::Values(1.0, 3.0, 8.0, 20.0)));

// --- radial-kernel fast path ------------------------------------------------

// The kernel fast path must be indistinguishable from the exact sqrt+exp
// reference across random multi-anchor constraint sequences: mean and spread
// within 1e-9 relative (of the area scale), MAP in the same cell.
TEST(BayesGridKernel, LutMatchesExactAcrossRandomConstraints) {
    sim::RandomStream rng(99);
    const double scale = paper_grid().area.diagonal();
    for (int rep = 0; rep < 20; ++rep) {
        BayesGrid fast(paper_grid());
        BayesGrid exact(paper_grid());
        const int constraints = 1 + static_cast<int>(rng.uniform_int(0, 4));
        for (int c = 0; c < constraints; ++c) {
            const Vec2 anchor{rng.uniform(-20.0, 220.0), rng.uniform(-20.0, 220.0)};
            const phy::DistancePdf pdf =
                make_pdf(rng.uniform(2.0, 150.0), rng.uniform(0.5, 25.0));
            fast.apply_constraint(anchor, kernel(pdf));
            exact.apply_constraint_exact(anchor, pdf);
        }
        EXPECT_NEAR(fast.mean().x, exact.mean().x, 1e-9 * scale);
        EXPECT_NEAR(fast.mean().y, exact.mean().y, 1e-9 * scale);
        EXPECT_NEAR(fast.spread(), exact.spread(),
                    1e-9 * std::max(scale, exact.spread()));
        // MAP must land in the same cell — cell centres compare exactly.
        EXPECT_EQ(fast.map_estimate().x, exact.map_estimate().x);
        EXPECT_EQ(fast.map_estimate().y, exact.map_estimate().y);
    }
}

// Every kernel self-certifies at build time: interpolated evaluations agree
// with the exact Gaussian-plus-floor to ~1e-10 relative everywhere.
TEST(BayesGridKernel, KernelEvalCertified) {
    sim::RandomStream rng(7);
    for (const auto& [mean, sigma] :
         {std::pair{40.0, 3.0}, {3.0, 4.0}, {120.0, 15.0}, {1.0, 0.7}}) {
        const RadialKernel k = kernel(make_pdf(mean, sigma));
        for (int i = 0; i < 20000; ++i) {
            const double q = rng.uniform(0.0, k.q_hi() * 1.1);
            const double got = k.eval_q(q);
            const double want = k.eval_exact_d(std::sqrt(q));
            EXPECT_NEAR(got, want, 1e-9 * want)
                << "mean=" << mean << " sigma=" << sigma << " q=" << q;
        }
    }
}

// Near-anchor constraints exercise the certified exact-evaluation region
// around the √q singularity; the cells next to the anchor must still match
// the reference to full tolerance.
TEST(BayesGridKernel, NearAnchorCellsExact) {
    BayesGrid fast(paper_grid());
    BayesGrid exact(paper_grid());
    const Vec2 anchor{101.0, 99.0};  // inside a cell, near its corner
    const phy::DistancePdf pdf = make_pdf(1.5, 2.0);
    fast.apply_constraint(anchor, kernel(pdf));
    exact.apply_constraint_exact(anchor, pdf);
    for (std::size_t iy = 45; iy < 55; ++iy) {
        for (std::size_t ix = 45; ix < 55; ++ix) {
            EXPECT_NEAR(fast.mass_at(ix, iy), exact.mass_at(ix, iy),
                        1e-9 * exact.mass_at(ix, iy));
        }
    }
}

// Kernels reject parameters they cannot tabulate instead of computing a NaN
// interval count: non-finite moments, and bands too wide to square.
TEST(BayesGridKernel, UnbuildableKernelsThrow) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& [mean, sigma] : {std::pair{nan, 3.0}, {40.0, nan}, {inf, 3.0},
                                      {40.0, inf}, {40.0, -1.0}, {40.0, 1e300},
                                      {1e300, 3.0}, {0.0, 1e-170}}) {
        EXPECT_THROW(RadialKernel::for_pdf(mean, sigma, 0.01), std::invalid_argument)
            << "mean=" << mean << " sigma=" << sigma;
    }
    BayesGrid g(paper_grid());
    EXPECT_THROW(g.apply_constraint_exact({0.0, 0.0}, make_pdf(40.0, nan)),
                 std::invalid_argument);
    EXPECT_THROW(g.apply_constraint_exact({0.0, 0.0}, make_pdf(nan, 3.0)),
                 std::invalid_argument);
}

// The compensated/pairwise summations keep the mass budget honest on a
// million-cell grid: drift stays at the 1e-12 level, not n·eps.
TEST(BayesGridKernel, MillionCellMassDrift) {
    GridConfig cfg;
    cfg.area = Rect::square(200.0);
    cfg.cell_m = 0.2;  // 1000 x 1000 cells
    BayesGrid g(cfg);
    ASSERT_EQ(g.cell_count(), 1'000'000u);
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    g.apply_constraint({60.0, 140.0}, kernel(make_pdf(50.0, 4.0)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    g.apply_constraint({150.0, 40.0}, kernel(make_pdf(80.0, 10.0)));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    EXPECT_TRUE(cfg.area.contains(g.mean()));
}

/// Restores the global kernel-path override on scope exit, so a failing
/// assertion can't leak a forced path into later tests.
struct ForcePathGuard {
    explicit ForcePathGuard(gridk::ForcePath p) { gridk::set_force_path(p); }
    ~ForcePathGuard() { gridk::set_force_path(gridk::ForcePath::None); }
};

/// Randomized oracle equivalence of the blocked/SIMD apply path against
/// apply_constraint_exact, across the layouts that stress its edge handling:
/// widths that are not a multiple of the 8-lane block (tail blocks padded
/// with +inf colq), non-square grids, floor_fraction = 0 (no in-band floor
/// blending at the band edge) and near-degenerate sigmas that lean on the
/// kernel's sigma floor and certified-exact region.
TEST(BayesGridKernel, SimdMatchesExactOracleOnEdgeLayouts) {
    struct Layout {
        double w, h, cell, floor_frac;
    };
    const std::vector<Layout> layouts = {
        {200.0, 200.0, 1.7, 0.01},   // nx = 118: 14 full blocks + 6-lane tail
        {200.0, 120.0, 2.3, 0.0},    // 87 x 53, zero floor
        {61.0, 200.0, 3.1, 0.05},    // 20 x 65: narrow, block-and-a-half rows
        {200.0, 200.0, 25.0, 0.01},  // 8 x 8: single block per row
    };
    sim::RandomStream rng(4242);
    for (const Layout& l : layouts) {
        GridConfig cfg;
        cfg.area = Rect{{0.0, 0.0}, {l.w, l.h}};
        cfg.cell_m = l.cell;
        cfg.floor_fraction = l.floor_frac;
        for (int rep = 0; rep < 6; ++rep) {
            BayesGrid fast(cfg);
            BayesGrid exact(cfg);
            // Mutually consistent constraints (rings through one truth
            // point): the posterior keeps real mass, so normalization can't
            // amplify the kernel's designed 8.5-sigma band truncation into
            // a visible disagreement with the untruncated oracle.
            const Vec2 truth{rng.uniform(0.1 * l.w, 0.9 * l.w),
                             rng.uniform(0.1 * l.h, 0.9 * l.h)};
            const int constraints = 1 + static_cast<int>(rng.uniform_int(0, 2));
            for (int c = 0; c < constraints; ++c) {
                const Vec2 anchor{rng.uniform(-0.2 * l.w, 1.2 * l.w),
                                  rng.uniform(-0.2 * l.h, 1.2 * l.h)};
                // Sigmas down to 0.05 m: far below cell size, deep into the
                // kernel's sigma-floor/exact-evaluation regime.
                const double d = geom::distance(anchor, truth);
                const phy::DistancePdf pdf =
                    make_pdf(std::max(0.5, d * rng.uniform(0.95, 1.05)),
                             rng.uniform(0.05, 20.0));
                fast.apply_constraint(anchor, kernel(pdf, l.floor_frac));
                exact.apply_constraint_exact(anchor, pdf);
            }
            EXPECT_NEAR(fast.total_mass(), 1.0, 1e-10);
            // Absolute slack 1e-12: beyond the band edge the kernel returns
            // the floor while the oracle keeps an exp tail ~2e-16 of the
            // ring peak — by design, not an equivalence failure.
            for (std::size_t iy = 0; iy < fast.ny(); ++iy) {
                for (std::size_t ix = 0; ix < fast.nx(); ++ix) {
                    const double want = exact.mass_at(ix, iy);
                    ASSERT_NEAR(fast.mass_at(ix, iy), want, 1e-9 * want + 1e-12)
                        << "cell (" << ix << ", " << iy << ") cell_m=" << l.cell
                        << " floor=" << l.floor_frac;
                }
            }
            const double scale = cfg.area.diagonal();
            EXPECT_NEAR(fast.mean().x, exact.mean().x, 1e-9 * scale);
            EXPECT_NEAR(fast.mean().y, exact.mean().y, 1e-9 * scale);
            EXPECT_NEAR(fast.spread(), exact.spread(),
                        1e-9 * std::max(scale, exact.spread()));
        }
    }
}

/// The determinism half of the SIMD contract: the runtime-dispatched ISA
/// instantiation and the portable Generic instantiation produce bitwise
/// identical grids and statistics — this is what lets CI diff fig7 output
/// between -DCOCOA_SIMD=ON and OFF builds byte-for-byte. (On hardware where
/// dispatch resolves to the baseline anyway, it degenerates to self-vs-self
/// and stays green.)
TEST(BayesGridKernel, DispatchedAndGenericPathsAreBitwiseIdentical) {
    GridConfig cfg;
    cfg.area = Rect::square(200.0);
    cfg.cell_m = 1.7;  // odd width: exercises the padded tail block
    BayesGrid dispatched(cfg);
    BayesGrid generic(cfg);

    const Vec2 anchor{37.0, 141.0};
    const std::vector<phy::DistancePdf> pdfs = {
        make_pdf(40.0, 3.0), make_pdf(3.0, 4.0), make_pdf(120.0, 15.0),
        make_pdf(1.0, 0.7)};
    for (const auto& pdf : pdfs) dispatched.apply_constraint(anchor, kernel(pdf));
    {
        ForcePathGuard guard(gridk::ForcePath::Generic);
        for (const auto& pdf : pdfs) generic.apply_constraint(anchor, kernel(pdf));
    }

    for (std::size_t iy = 0; iy < dispatched.ny(); ++iy) {
        for (std::size_t ix = 0; ix < dispatched.nx(); ++ix) {
            ASSERT_EQ(dispatched.mass_at(ix, iy), generic.mass_at(ix, iy))
                << "cell (" << ix << ", " << iy << ") differs bitwise under "
                << gridk::active_isa();
        }
    }
    EXPECT_EQ(dispatched.mean().x, generic.mean().x);
    EXPECT_EQ(dispatched.mean().y, generic.mean().y);
    EXPECT_EQ(dispatched.spread(), generic.spread());
}

/// ForcePath::Serial bypasses the blocked kernels entirely (the sequential
/// twin the _scalar benches time). It is tolerance-equivalent, not bitwise.
TEST(BayesGridKernel, SerialTwinMatchesWithinTolerance) {
    GridConfig cfg = paper_grid();
    BayesGrid blocked(cfg);
    BayesGrid serial(cfg);
    const phy::DistancePdf pdf = make_pdf(60.0, 5.0);
    blocked.apply_constraint({80.0, 90.0}, kernel(pdf));
    {
        ForcePathGuard guard(gridk::ForcePath::Serial);
        serial.apply_constraint({80.0, 90.0}, kernel(pdf));
    }
    EXPECT_NEAR(serial.total_mass(), 1.0, 1e-10);
    const double scale = cfg.area.diagonal();
    EXPECT_NEAR(blocked.mean().x, serial.mean().x, 1e-9 * scale);
    EXPECT_NEAR(blocked.mean().y, serial.mean().y, 1e-9 * scale);
    EXPECT_NEAR(blocked.spread(), serial.spread(), 1e-9 * scale);
}

// mean()/spread() are one fused cached pass; mutation invalidates the cache.
TEST(BayesGridKernel, FusedStatsCacheInvalidates) {
    BayesGrid g(paper_grid());
    const Vec2 before = g.mean();
    EXPECT_NEAR(before.x, 100.0, 1e-9);
    g.apply_constraint({40.0, 40.0}, kernel(make_pdf(10.0, 3.0)));
    const Vec2 after = g.mean();
    EXPECT_GT(geom::distance(before, after), 1.0);
    const double s1 = g.spread();
    g.reset_uniform();
    EXPECT_NE(g.spread(), s1);
    EXPECT_NEAR(g.mean().x, 100.0, 1e-9);
}

// --- kernel bank ------------------------------------------------------------

std::shared_ptr<const phy::PdfTable> calibrated_table() {
    static const auto table = std::make_shared<const phy::PdfTable>(
        phy::PdfTable::calibrate(phy::Channel{}, {}, sim::RandomStream(7)));
    return table;
}

/// Indices of the bins PdfTable::lookup hands out (the only ones a localizer
/// ever asks the bank for).
std::vector<std::size_t> usable_bins(const phy::PdfTable& table) {
    std::vector<std::size_t> bins;
    for (int rssi = table.min_rssi_dbm(); rssi <= table.max_rssi_dbm(); ++rssi) {
        if (const phy::DistancePdf* pdf = table.lookup(rssi)) {
            bins.push_back(static_cast<std::size_t>(pdf - table.bins().data()));
        }
    }
    return bins;
}

/// Beacons whose RSSIs hit `rssis`, from anchors around the area centre.
std::vector<BeaconObservation> beacons_at(const std::vector<double>& rssis) {
    std::vector<BeaconObservation> obs;
    for (std::size_t i = 0; i < rssis.size(); ++i) {
        const double angle = 2.0 * static_cast<double>(i);
        obs.push_back({{100.0 + 60.0 * std::cos(angle), 100.0 + 60.0 * std::sin(angle)},
                       rssis[i]});
    }
    return obs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every grid on a table folds the bank's one kernel per bin: two localizers
// sharing a table's bank get the same kernel object for every bin, and the
// second localizer's fix builds nothing the first did not.
TEST(KernelBank, LocalizersSharingATableShareKernels) {
    const auto bank = std::make_shared<const KernelBank>(calibrated_table(),
                                                         paper_grid().floor_fraction);
    RfLocalizer first(paper_grid(), bank);
    RfLocalizer second(paper_grid(), bank);
    const auto obs = beacons_at({-50.0, -60.0, -70.0, -80.0});
    const auto fix1 = first.compute_fix(obs);
    ASSERT_TRUE(fix1.has_value());
    std::vector<bool> built;
    for (std::size_t b = 0; b < bank->table().bin_count(); ++b) {
        built.push_back(bank->is_built(b));
    }
    const auto fix2 = second.compute_fix(obs);
    ASSERT_TRUE(fix2.has_value());
    EXPECT_EQ(fix1->position, fix2->position);
    for (std::size_t b = 0; b < bank->table().bin_count(); ++b) {
        EXPECT_EQ(bank->is_built(b), built[b]) << "bin " << b;
    }
    for (const std::size_t b : usable_bins(bank->table())) {
        EXPECT_EQ(&first.kernels().kernel(b), &second.kernels().kernel(b)) << "bin " << b;
    }
}

// A bank kernel is exactly the kernel a grid would build on its own: every
// usable bin matches a freshly built RadialKernel bit for bit.
TEST(KernelBank, EveryBinBitwiseEqualsFreshKernel) {
    const double floor_fraction = 0.03;
    const KernelBank bank(calibrated_table(), floor_fraction);
    const std::vector<std::size_t> bins = usable_bins(bank.table());
    ASSERT_GT(bins.size(), 40u);
    for (const std::size_t b : bins) {
        const phy::DistancePdf& pdf = bank.table().bins()[b];
        const RadialKernel& got = bank.kernel(b);
        const RadialKernel want =
            RadialKernel::for_pdf(pdf.mean_m, pdf.sigma_m, floor_fraction);
        ASSERT_EQ(got.node_count(), want.node_count()) << "bin " << b;
        EXPECT_EQ(got.interval_count(), want.interval_count()) << "bin " << b;
        EXPECT_EQ(bits(got.q_lo()), bits(want.q_lo())) << "bin " << b;
        EXPECT_EQ(bits(got.q_hi()), bits(want.q_hi())) << "bin " << b;
        EXPECT_EQ(bits(got.q_exact()), bits(want.q_exact())) << "bin " << b;
        EXPECT_EQ(bits(got.inv_dq()), bits(want.inv_dq())) << "bin " << b;
        EXPECT_EQ(bits(got.floor()), bits(want.floor())) << "bin " << b;
        for (std::size_t i = 0; i < got.node_count(); ++i) {
            ASSERT_EQ(bits(got.values()[i]), bits(want.values()[i])) << "bin " << b;
            ASSERT_EQ(bits(got.slopes()[i]), bits(want.slopes()[i])) << "bin " << b;
        }
    }
}

// Kernels stay lazy: a bin that is never looked up is never built, and a
// localizer that ranges without the grid builds none at all.
TEST(KernelBank, BinsNeverLookedUpAreNeverBuilt) {
    const auto bank = std::make_shared<const KernelBank>(calibrated_table(),
                                                         paper_grid().floor_fraction);
    const phy::PdfTable& table = bank->table();
    const auto obs = beacons_at({-55.0, -65.0, -75.0});
    RfLocalizer::Options centroid;
    centroid.technique = RfTechnique::WeightedCentroid;
    ASSERT_TRUE(RfLocalizer(paper_grid(), bank, centroid).compute_fix(obs).has_value());
    for (std::size_t b = 0; b < table.bin_count(); ++b) {
        EXPECT_FALSE(bank->is_built(b)) << "bin " << b;
    }
    RfLocalizer grid(paper_grid(), bank);
    ASSERT_TRUE(grid.compute_fix(obs).has_value());
    std::vector<bool> looked_up(table.bin_count(), false);
    for (const BeaconObservation& o : obs) {
        const phy::DistancePdf* pdf = table.lookup(o.rssi_dbm);
        looked_up[static_cast<std::size_t>(pdf - table.bins().data())] = true;
    }
    for (std::size_t b = 0; b < table.bin_count(); ++b) {
        EXPECT_EQ(bank->is_built(b), looked_up[b]) << "bin " << b;
    }
}

TEST(KernelBank, RejectsBadInputs) {
    EXPECT_THROW(KernelBank(nullptr, 0.01), std::invalid_argument);
    EXPECT_THROW(KernelBank(calibrated_table(), 1.0), std::invalid_argument);
    const KernelBank bank(calibrated_table(), 0.01);
    EXPECT_THROW(bank.kernel(bank.table().bin_count()), std::out_of_range);
    // A localizer's grid and its bank must agree on the constraint floor.
    GridConfig other = paper_grid();
    other.floor_fraction = 0.02;
    const auto bank01 = std::make_shared<const KernelBank>(calibrated_table(), 0.01);
    EXPECT_THROW(RfLocalizer(other, bank01), std::invalid_argument);
}

// Eight threads race the first use of every bin of one cold bank: each bin
// publishes exactly one kernel, and every thread sees that same pointer.
// Runs under ThreadSanitizer in CI.
TEST(KernelBank, ConcurrentFirstUsePublishesOneKernelPerBin) {
    const KernelBank bank(calibrated_table(), 0.01);
    const std::vector<std::size_t> bins = usable_bins(bank.table());
    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<const RadialKernel*>> seen(
        kThreads, std::vector<const RadialKernel*>(bins.size(), nullptr));
    std::atomic<std::size_t> ready{0};
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads) {
                }
                for (std::size_t i = 0; i < bins.size(); ++i) {
                    seen[t][i] = &bank.kernel(bins[i]);
                }
            });
        }
        for (std::thread& th : threads) th.join();
    }
    for (std::size_t i = 0; i < bins.size(); ++i) {
        ASSERT_NE(seen[0][i], nullptr);
        for (std::size_t t = 1; t < kThreads; ++t) {
            EXPECT_EQ(seen[t][i], seen[0][i]) << "bin " << bins[i] << " thread " << t;
        }
        EXPECT_EQ(&bank.kernel(bins[i]), seen[0][i]) << "bin " << bins[i];
    }
}

}  // namespace
}  // namespace cocoa::core
