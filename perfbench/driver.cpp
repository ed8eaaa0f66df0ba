/**
 * @file
 * The benchmark driver: one process, one thread, one workload.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *   perfbench --kernel-only --seconds <s>
 *
 * A run is a sequence of rounds. Each round builds the workload's
 * testbed afresh (timed: set-up), runs the warm-up, then a fixed
 * window of simulated time. Round 0 runs the window as one unsliced
 * run(); every later round runs it in slices and times each slice on
 * the thread-CPU clock, with the reference kernel (calib.hpp) run just
 * before it. All rounds simulate the same program, so each must end
 * with round 0's order digest, event count, packet count and goodput:
 * this checks both that slicing does not change the schedule and that
 * the simulator repeats itself. A round that differs, or whose SR-IOV
 * goodput leaves the figure benches' line-rate band, counts as failed.
 *
 * With --trace 1, sliced rounds alternate between untraced and traced
 * (a LayerTrace hook on the queue); the per-layer metrics come from the
 * traced rounds, and the gap between the two kinds of rounds is the
 * tracing overhead. The last line of stdout is the result as JSON.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "calib.hpp"
#include "layer_trace.hpp"
#include "workloads.hpp"

using namespace perfbench;
using sriov::core::Testbed;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool kernel_only = false;
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n"
                 "       perfbench --kernel-only --seconds <s>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--kernel-only") {
            a.kernel_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                usage("--seed takes a non-negative integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120)
                usage("--seconds takes a number in (0, 120]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 100). */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Interquartile range over median (the driver's spread measure). */
double
iqrShare(std::vector<double> v)
{
    if (v.size() < 2)
        return 0;
    std::sort(v.begin(), v.end());
    double m = median(v);
    return m == 0 ? 0
                  : (percentile(v, 75) - percentile(v, 25)) / m;
}

/** Per slice position, the median over @p rounds of @p f(slice). */
template <typename R, typename F>
std::vector<double>
perPosition(const std::vector<const R *> &rounds, unsigned positions, F f)
{
    std::vector<double> out;
    for (unsigned i = 0; i < positions; ++i) {
        std::vector<double> v;
        for (const R *r : rounds)
            v.push_back(f(r->slices.at(i)));
        out.push_back(median(v));
    }
    return out;
}

/** Run the reference kernel; returns its thread-CPU ns. A wrong
 *  checksum means the yardstick itself is broken: no result. */
double
referenceKernel()
{
    std::uint64_t sum = 0;
    std::int64_t ns = runReferenceKernel(sum);
    if (sum != referenceChecksum()) {
        std::fprintf(stderr, "perfbench: reference kernel checksum %016llx, "
                             "expected %016llx\n",
                     static_cast<unsigned long long>(sum),
                     static_cast<unsigned long long>(referenceChecksum()));
        std::exit(1);
    }
    return double(ns);
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

/** Simulator counters read at the edges of the measured window. */
struct Counters
{
    double l2_lookups = 0;
    double rx_drops = 0;
    double vf_interrupts = 0;
    double intr_delivered = 0;
    double vm_exits = 0;
    double netback_copies = 0;
    double warped_s = 0;
    double probes = 0;
    double segments = 0;
    double events_elided = 0;

    static Counters
    read(Testbed &tb, const WorkloadSpec &w)
    {
        Counters c;
        for (unsigned p = 0; p < tb.portCount(); ++p) {
            c.l2_lookups += double(tb.port(p).l2().lookups());
            c.rx_drops += double(tb.port(p).rxDropNoMatch());
            if (w.mode == Testbed::NetMode::Pv)
                c.netback_copies += double(tb.netback(p).copies());
        }
        c.vm_exits = tb.server().dom0().exits().totalCount();
        for (std::size_t i = 0; i < tb.guestCount(); ++i) {
            Testbed::Guest &g = tb.guest(i);
            c.vm_exits += g.dom->exits().totalCount();
            if (g.vf) {
                const auto &s = g.vf->deviceStats();
                c.rx_drops += double(s.rx_drop_ring.value()
                                     + s.rx_drop_master.value()
                                     + s.rx_drop_iommu.value());
                c.vf_interrupts += double(s.interrupts.value());
            }
        }
        c.intr_delivered = double(tb.server().router().delivered());
        if (const sriov::sim::FluidStats *fs = tb.fluidStats()) {
            c.warped_s = fs->warped.toSeconds();
            c.probes = double(fs->probes);
            c.segments = double(fs->segments);
            c.events_elided = double(fs->events_elided);
        }
        return c;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d;
        d.l2_lookups = l2_lookups - o.l2_lookups;
        d.rx_drops = rx_drops - o.rx_drops;
        d.vf_interrupts = vf_interrupts - o.vf_interrupts;
        d.intr_delivered = intr_delivered - o.intr_delivered;
        d.vm_exits = vm_exits - o.vm_exits;
        d.netback_copies = netback_copies - o.netback_copies;
        d.warped_s = warped_s - o.warped_s;
        d.probes = probes - o.probes;
        d.segments = segments - o.segments;
        d.events_elided = events_elided - o.events_elided;
        return d;
    }
};

struct Slice
{
    double cpu_ns = 0;
    double k_before = 0;    ///< reference kernel just before the slice
    double pkts = 0;
    double calibNs() const { return cpu_ns * kNominalNs / k_before; }
};

struct Round
{
    enum class Kind { Reference, Sliced, Traced };
    Kind kind = Kind::Reference;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t pkts = 0;
    double goodput_bps = 0;
    std::uint64_t allocs = 0;           ///< whole round: build to end
    std::uint64_t window_allocs = 0;    ///< inside the timed slices
    double wall_s = 0;
    Counters counters;
    std::vector<Slice> slices;
    std::vector<std::string> failures;
};

Round
runRound(const WorkloadSpec &w, std::uint64_t seed, Round::Kind kind,
         LayerTrace *trace)
{
    Round r;
    r.kind = kind;
    std::int64_t wall0 = wallNs();
    r.slices.reserve(w.slices);
    const std::uint64_t allocs0 = allocationCount();
    Bed bed = buildBed(w, seed);

    Testbed &tb = *bed.tb;
    tb.run(w.warmup);
    bed.takeGoodputBps();
    const std::uint64_t pkts0 = bed.deliveredPackets();
    const std::uint64_t events0 = tb.executedEvents();
    const Counters ctr0 = Counters::read(tb, w);

    if (kind == Round::Kind::Reference) {
        tb.run(w.slice * w.slices);
    } else {
        if (trace)
            tb.eq().addExecHook(trace);
        std::uint64_t allocs = 0;
        std::uint64_t last_pkts = pkts0;
        for (unsigned i = 0; i < w.slices; ++i) {
            Slice s;
            s.k_before = referenceKernel();
            if (trace)
                trace->beginSlice();
            std::uint64_t a0 = allocationCount();
            std::int64_t t0 = threadCpuNs();
            tb.run(w.slice);
            s.cpu_ns = double(threadCpuNs() - t0);
            allocs += allocationCount() - a0;
            if (trace)
                trace->endSlice(kNominalNs / s.k_before);
            std::uint64_t pk = bed.deliveredPackets();
            s.pkts = double(pk - last_pkts);
            last_pkts = pk;
            r.slices.push_back(s);
        }
        if (trace)
            tb.eq().removeExecHook(trace);
        r.window_allocs = allocs;
    }

    r.goodput_bps = bed.takeGoodputBps();
    r.pkts = bed.deliveredPackets() - pkts0;
    r.events = tb.executedEvents() - events0;
    r.digest = tb.orderDigest();
    r.counters = Counters::read(tb, w) - ctr0;
    r.allocs = allocationCount() - allocs0;
    r.wall_s = double(wallNs() - wall0) * 1e-9;
    return r;
}

/** Checks of one round against round 0 and against the figure band. */
void
checkRound(Round &r, const Round &ref, const WorkloadSpec &w)
{
    char buf[160];
    if (r.digest != ref.digest) {
        std::snprintf(buf, sizeof buf, "digest %016llx != %016llx",
                      static_cast<unsigned long long>(r.digest),
                      static_cast<unsigned long long>(ref.digest));
        r.failures.push_back(buf);
    }
    if (r.events != ref.events)
        r.failures.push_back("executed events differ from round 0");
    if (r.pkts != ref.pkts)
        r.failures.push_back("delivered packets differ from round 0");
    if (r.goodput_bps != ref.goodput_bps)
        r.failures.push_back("goodput differs from round 0");
    for (const Slice &s : r.slices)
        if (s.pkts <= 0) {
            r.failures.push_back("a slice delivered no packet");
            break;
        }
    if (w.expect_gbps > 0) {
        double gbps = r.goodput_bps / 1e9;
        double dev = std::fabs(gbps - w.expect_gbps) / w.expect_gbps * 100;
        if (dev > w.band_pct) {
            std::snprintf(buf, sizeof buf,
                          "goodput %.4f Gb/s outside %.2f +- %.0f%%", gbps,
                          w.expect_gbps, w.band_pct);
            r.failures.push_back(buf);
        }
    }
    if (r.counters.rx_drops != 0 && w.mode == Testbed::NetMode::Sriov)
        r.failures.push_back("SR-IOV receive drops at line rate");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Testbed builds timed for setup_s (its median). */
constexpr unsigned kSetupBuilds = 40;

/**
 * The per-layer metrics of the traced rounds. Layer rows are every
 * tag's self time grouped by module, plus the slice time no callback
 * covers as the event core's row; @p rows_ok says whether they sum to
 * the slice total. Counters are the reference round's (every round has
 * the same).
 */
std::vector<Metric>
layerMetrics(const LayerTrace &trace, const Round &ref, unsigned traced,
             double window_s, double window_allocs, double untraced_med,
             double traced_med, bool &rows_ok)
{
    const double pkts = double(ref.pkts);
    const double traced_pkts = pkts * traced;
    const double traced_sim_s = window_s * traced;
    const auto tags = trace.tagTotals();
    auto tagNs = [&](const char *t) {
        auto it = tags.find(t);
        return it == tags.end() ? 0.0 : it->second.self_ns / traced_pkts;
    };
    auto tagEvents = [&](const char *t) {
        auto it = tags.find(t);
        return it == tags.end() ? 0.0
                                : double(it->second.events) / traced_pkts;
    };
    std::map<std::string, double> layer_ns;
    for (const auto &[tag, tot] : tags)
        layer_ns[layerOfTag(tag)] += tot.self_ns;
    layer_ns["sim"] += trace.uncoveredNs();
    double rows = 0;
    for (const auto &[layer, ns] : layer_ns)
        rows += ns;
    const double slice_ns = trace.sliceTotalNs();

    std::fprintf(stderr, "layer rows (calibrated wall ns/pkt, share of "
                         "slice time):\n");
    for (const auto &[layer, ns] : layer_ns)
        std::fprintf(stderr, "  %-8s %10.1f  %5.1f%%\n", layer.c_str(),
                     ns / traced_pkts, 100 * ns / slice_ns);
    for (const auto &[tag, tot] : tags)
        std::fprintf(stderr, "    %-20s %-8s %10.1f ns/pkt %8.4f ev/pkt\n",
                     tag.c_str(), layerOfTag(tag).c_str(),
                     tot.self_ns / traced_pkts,
                     double(tot.events) / traced_pkts);
    rows_ok = std::fabs(rows - slice_ns) <= 1e-9 * slice_ns;
    if (!rows_ok)
        std::fprintf(stderr, "layer rows %.0f ns != slice total %.0f ns\n",
                     rows, slice_ns);

    const Counters &c = ref.counters;
    const double core_ns = layer_ns["core"];
    std::vector<Metric> m{
        {"nic.wire_burst_ns_per_pkt", tagNs("wire.burst"), "ns"},
        {"nic.wire_bursts_per_pkt", tagEvents("wire.burst"), "count"},
        {"nic.itr_ns_per_pkt", tagNs("nic.itr"), "ns"},
        {"nic.itr_events_per_pkt", tagEvents("nic.itr"), "count"},
        {"nic.l2_lookups_per_pkt", c.l2_lookups / pkts, "count"},
        {"nic.rx_drops_per_pkt", c.rx_drops / pkts, "count"},
        {"guest.emit_ns_per_pkt", tagNs("netperf.emit"), "ns"},
        {"guest.emits_per_pkt", tagEvents("netperf.emit"), "count"},
        {"guest.rto_per_pkt", tagEvents("netperf.rto"), "count"},
        {"mem.dma_done_ns_per_pkt", tagNs("dma.done"), "ns"},
        {"mem.dma_done_per_pkt", tagEvents("dma.done"), "count"},
        {"vmm.cpu_done_ns_per_pkt", tagNs("cpu.done"), "ns"},
        {"vmm.cpu_done_per_pkt", tagEvents("cpu.done"), "count"},
        {"vmm.vm_exits_per_pkt", c.vm_exits / pkts, "count"},
        {"drivers.netback_copies_per_pkt", c.netback_copies / pkts, "count"},
        {"drivers.vf_interrupts_per_pkt", c.vf_interrupts / pkts, "count"},
        {"intr.delivered_per_pkt", c.intr_delivered / pkts, "count"},
        {"sim.queue_ns_per_pkt", trace.uncoveredNs() / traced_pkts, "ns"},
        {"sim.window_allocs_per_pkt", window_allocs / pkts, "count"},
        {"core.fluid_ns_per_sim_s", core_ns / traced_sim_s, "ns/s"},
        {"core.exact_ns_per_sim_s", (slice_ns - core_ns) / traced_sim_s,
         "ns/s"},
        {"core.warp_frac", c.warped_s / window_s, "ratio"},
        {"core.probe_accept_ratio",
         c.probes > 0 ? c.segments / c.probes : 0.0, "ratio"},
        {"core.events_elided_per_pkt", c.events_elided / pkts, "count"},
    };
    for (const char *layer : {"nic", "guest", "mem", "vmm", "drivers", "intr",
                              "core", "sim", "other"})
        m.push_back({std::string("layer.") + layer + "_ns_per_pkt",
                     layer_ns[layer] / traced_pkts, "ns"});
    m.push_back({"trace.slice_ns_per_pkt", slice_ns / traced_pkts, "ns"});
    m.push_back({"trace.host_ns_per_pkt", traced_med, "ns"});
    m.push_back({"trace.overhead_frac", traced_med / untraced_med - 1,
                 "ratio"});
    return m;
}

/** Calibrated CPU seconds of @p n testbed builds, each timed alone. */
std::vector<double>
measureSetup(const WorkloadSpec &w, std::uint64_t seed, unsigned n)
{
    std::vector<double> out;
    for (unsigned i = 0; i < n; ++i) {
        double k = referenceKernel();
        std::int64_t c0 = threadCpuNs();
        Bed bed = buildBed(w, seed);
        out.push_back(double(threadCpuNs() - c0) * 1e-9 * kNominalNs / k);
    }
    return out;
}

int
kernelOnly(const Args &a)
{
    std::vector<double> ks;
    std::int64_t end = wallNs() + std::int64_t(a.seconds * 1e9);
    while (wallNs() < end)
        ks.push_back(referenceKernel());
    std::printf("reference kernel: %zu runs, median %.0f ns, IQR/median "
                "%.4f, min %.0f, max %.0f\n",
                ks.size(), median(ks), iqrShare(ks),
                *std::min_element(ks.begin(), ks.end()),
                *std::max_element(ks.begin(), ks.end()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (a.kernel_only)
        return kernelOnly(a);
    const WorkloadSpec *w = findWorkload(a.workload);
    if (!w) {
        std::string names;
        for (const std::string &n : workloadNames())
            names += " " + n;
        usage(("unknown workload; one of:" + names).c_str());
    }

    // Set-up is timed over its own builds. Then round 0, the unsliced
    // reference, and sliced rounds until the time is spent: at least
    // three untraced and, with --trace 1, as many traced, alternating.
    const std::int64_t start = wallNs();
    const std::int64_t budget = std::int64_t(a.seconds * 1e9);
    const std::vector<double> setup = measureSetup(*w, a.seed, kSetupBuilds);
    LayerTrace trace(1u << 14);
    std::vector<Round> rounds;
    rounds.push_back(runRound(*w, a.seed, Round::Kind::Reference, nullptr));
    checkRound(rounds[0], rounds[0], *w);
    // Read before the sliced rounds, whose number depends on the host's
    // speed and whose heap reuse could move the peak.
    const double peak_rss_mb = peakRssMiB();
    unsigned untraced = 0, traced = 0;
    double longest = 0;
    for (;;) {
        const double used = double(wallNs() - start);
        const bool need = untraced < 3 || (a.trace && traced < 3);
        if (!need && used + longest * 1e9 > double(budget))
            break;
        const bool do_trace = a.trace && traced < untraced;
        Round r = runRound(*w, a.seed,
                           do_trace ? Round::Kind::Traced
                                    : Round::Kind::Sliced,
                           do_trace ? &trace : nullptr);
        checkRound(r, rounds[0], *w);
        longest = std::max(longest, r.wall_s);
        (do_trace ? traced : untraced) += 1;
        rounds.push_back(std::move(r));
    }

    const Round &ref = rounds[0];
    const Round &first_sliced = rounds[1];
    const double pkts = double(ref.pkts);
    const double window_s = (w->slice * w->slices).toSeconds();

    // Every round simulates the same slices, so slice i's median across
    // rounds is its cost with the host's bad moments voted out. The
    // metrics are taken over those per-position medians.
    std::vector<const Round *> sliced, traced_rounds;
    for (const Round &r : rounds) {
        if (r.kind == Round::Kind::Sliced)
            sliced.push_back(&r);
        else if (r.kind == Round::Kind::Traced)
            traced_rounds.push_back(&r);
    }
    auto nsPerPkt = [](const Slice &s) { return s.calibNs() / s.pkts; };
    const std::vector<double> pos_ns_pkt =
        perPosition(sliced, w->slices, nsPerPkt);
    const std::vector<double> pos_ns =
        perPosition(sliced, w->slices, [](const Slice &s) { return s.calibNs(); });
    double host_s = 0;
    for (double ns : pos_ns)
        host_s += ns * 1e-9;

    // Tail: the highest listed percentile with >= 10 slices beyond it.
    double tail_p = 50;
    for (double p : {99.0, 95.0, 90.0, 80.0, 75.0}) {
        if (double(pos_ns_pkt.size()) * (100 - p) / 100 >= 10) {
            tail_p = p;
            break;
        }
    }

    // What the calibration removed: the spread of the adjacent kernel
    // times, and of raw and calibrated ns/pkt, over all untraced slices
    // and over the rounds' medians.
    std::vector<double> k_adj, raw, cal, round_raw, round_cal;
    for (const Round *r : sliced) {
        std::vector<double> rr, rc;
        for (const Slice &s : r->slices) {
            k_adj.push_back(s.k_before);
            rr.push_back(s.cpu_ns / s.pkts);
            rc.push_back(nsPerPkt(s));
        }
        raw.insert(raw.end(), rr.begin(), rr.end());
        cal.insert(cal.end(), rc.begin(), rc.end());
        round_raw.push_back(median(rr));
        round_cal.push_back(median(rc));
    }
    std::fprintf(stderr,
                 "%s seed %llu: %zu rounds (%zu sliced, %zu traced), %u "
                 "slices of %.3f sim s, %.0f pkts/round, digest %016llx\n",
                 w->name.c_str(), static_cast<unsigned long long>(a.seed),
                 rounds.size(), sliced.size(), traced_rounds.size(),
                 w->slices, w->slice.toSeconds(), pkts,
                 static_cast<unsigned long long>(ref.digest));
    std::fprintf(stderr,
                 "calibration, IQR/median: over %zu slices kernel %.4f, raw "
                 "%.4f, calibrated %.4f; over %zu round medians raw %.4f, "
                 "calibrated %.4f. Medians: kernel %.0f ns, raw %.1f ns/pkt, "
                 "calibrated %.1f ns/pkt\n",
                 k_adj.size(), iqrShare(k_adj), iqrShare(raw), iqrShare(cal),
                 sliced.size(), iqrShare(round_raw), iqrShare(round_cal),
                 median(k_adj), median(raw), median(cal));
    std::fprintf(stderr, "host_ns_per_pkt_tail is p%.0f of %zu slices\n",
                 tail_p, pos_ns_pkt.size());

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = {
            {"host_ns_per_pkt", median(pos_ns_pkt), "ns"},
            {"host_ns_per_pkt_tail", percentile(pos_ns_pkt, tail_p), "ns"},
            {"sim_s_per_host_s", window_s / host_s, "s/s"},
            {"setup_s", median(setup), "s"},
            {"events_per_pkt", double(ref.events) / pkts, "events"},
            {"allocs_per_pkt", double(first_sliced.allocs) / pkts, "allocs"},
            {"peak_rss_mb", peak_rss_mb, "MiB"},
            {"goodput_gbps", ref.goodput_bps / 1e9, "Gb/s"},
        };
    } else {
        bool rows_ok = false;
        metrics = layerMetrics(
            trace, ref, traced, window_s, double(sliced[0]->window_allocs),
            median(pos_ns_pkt),
            median(perPosition(traced_rounds, w->slices, nsPerPkt)), rows_ok);
        if (!rows_ok)
            rounds.back().failures.push_back("layer rows != slice total");
        if (!a.spans.empty() && !trace.writeSpans(a.spans, w->name))
            std::fprintf(stderr, "could not write spans to %s\n",
                         a.spans.c_str());
    }

    // Allocation counts are deterministic too, but round 0 also pays
    // the process's one-time lazy allocations and tracing allocates its
    // own records, so the untraced sliced rounds are compared among
    // themselves.
    std::size_t failed = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        Round &r = rounds[i];
        if (r.kind == Round::Kind::Sliced && r.allocs != first_sliced.allocs)
            r.failures.push_back("allocations differ from round 1");
        for (const std::string &f : r.failures)
            std::fprintf(stderr, "round %zu FAILED: %s\n", i, f.c_str());
        failed += r.failures.empty() ? 0 : 1;
    }

    printResult(failed == 0, rounds.size(), failed, metrics);
    return 0;
}
