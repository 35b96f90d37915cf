#include "power/model.hh"

#include <cmath>

namespace wavedyn
{

void
ActivityCounts::add(const ActivityCounts &other)
{
    cycles += other.cycles;
    fetched += other.fetched;
    dispatched += other.dispatched;
    issuedIntAlu += other.issuedIntAlu;
    issuedIntMul += other.issuedIntMul;
    issuedFpAlu += other.issuedFpAlu;
    issuedFpMul += other.issuedFpMul;
    issuedMem += other.issuedMem;
    issuedControl += other.issuedControl;
    committed += other.committed;
    il1Accesses += other.il1Accesses;
    il1Misses += other.il1Misses;
    dl1Accesses += other.dl1Accesses;
    dl1Misses += other.dl1Misses;
    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;
    memAccesses += other.memAccesses;
    itlbAccesses += other.itlbAccesses;
    itlbMisses += other.itlbMisses;
    dtlbAccesses += other.dtlbAccesses;
    dtlbMisses += other.dtlbMisses;
    bpredLookups += other.bpredLookups;
    bpredMispredicts += other.bpredMispredicts;
    btbLookups += other.btbLookups;
    regReads += other.regReads;
    regWrites += other.regWrites;
    iqOccupancySum += other.iqOccupancySum;
    robOccupancySum += other.robOccupancySum;
    lsqOccupancySum += other.lsqOccupancySum;
}

namespace
{

/** Capacity scaling of per-access energy: sub-linear, Wattch-like. */
double
sizeScale(double size, double ref)
{
    return std::pow(size / ref, 0.6);
}

// Global watts-per-energy-unit-per-cycle conversion. With the baseline
// configuration and typical activity this lands average power in the
// 30-90 W band of the paper's Figure 1.
constexpr double wattsPerUnitPerCycle = 18.0;

} // anonymous namespace

PowerModel::PowerModel(const SimConfig &cfg) : cfg(cfg)
{
    eIl1 = 0.28 * sizeScale(cfg.il1SizeKb, 32.0);
    eDl1 = 0.45 * sizeScale(cfg.dl1SizeKb, 64.0);
    eL2 = 1.60 * sizeScale(cfg.l2SizeKb, 2048.0);
    eMem = 8.0;
    eItlb = 0.05;
    eDtlb = 0.06;
    eBpred = 0.08 * sizeScale(cfg.bpredEntries, 2048.0);
    eBtb = 0.10 * sizeScale(cfg.btbEntries, 2048.0);

    eFetch = 0.06 * sizeScale(cfg.fetchWidth, 8.0);
    eDispatch = 0.12 * sizeScale(cfg.fetchWidth, 8.0);
    eCommit = 0.08;

    eIqPerEntryCycle = 0.010 * sizeScale(cfg.iqSize, 96.0);
    eIqSelect = 0.16 * sizeScale(cfg.iqSize, 96.0);
    eRobPerEntryCycle = 0.006 * sizeScale(cfg.robSize, 96.0);
    eLsqPerEntryCycle = 0.008 * sizeScale(cfg.lsqSize, 48.0);
    eLsqSearch = 0.20 * sizeScale(cfg.lsqSize, 48.0);
    eRegRead = 0.10 * sizeScale(cfg.fetchWidth, 8.0);
    eRegWrite = 0.14 * sizeScale(cfg.fetchWidth, 8.0);

    eIntAlu = 0.30;
    eIntMul = 1.10;
    eFpAlu = 0.80;
    eFpMul = 1.70;
    eMemPort = 0.25;

    // Clock tree grows with core width; leakage with total capacity.
    clockTreeWatts = 7.0 + 0.9 * cfg.fetchWidth;
    double capacity_proxy =
        0.18 * cfg.il1SizeKb / 32.0 + 0.34 * cfg.dl1SizeKb / 64.0 +
        2.10 * cfg.l2SizeKb / 2048.0 + 0.30 * cfg.iqSize / 96.0 +
        0.25 * cfg.robSize / 96.0 + 0.18 * cfg.lsqSize / 48.0 +
        0.45 * cfg.fetchWidth / 8.0;
    leakage = 4.0 * capacity_proxy;
}

namespace
{

/**
 * breakdown()'s keys in std::map order. watts() sums the terms in this
 * order, the order breakdown()'s map iterates in, so watts() equals
 * the sum over breakdown() bit for bit (floating-point addition is not
 * associative, so the order matters).
 */
constexpr const char *kTermNames[PowerModel::kTerms] = {
    "bpred", "clock",  "dcache", "fetch_dispatch", "fu",
    "icache", "issue_queue", "l2", "leakage", "lsq",
    "memory", "regfile", "rob",
};

} // anonymous namespace

std::array<double, PowerModel::kTerms>
PowerModel::terms(const ActivityCounts &a) const
{
    double cyc = static_cast<double>(a.cycles);
    auto watts_of = [&](double energy) {
        return energy / cyc * wattsPerUnitPerCycle;
    };
    double issued_total =
        static_cast<double>(a.issuedIntAlu + a.issuedIntMul +
                            a.issuedFpAlu + a.issuedFpMul + a.issuedMem +
                            a.issuedControl);
    return {
        watts_of(a.bpredLookups * eBpred + a.btbLookups * eBtb),
        clockTreeWatts,
        watts_of(a.dl1Accesses * eDl1 + a.dtlbAccesses * eDtlb),
        watts_of(a.fetched * eFetch + a.dispatched * eDispatch +
                 a.committed * eCommit),
        watts_of(a.issuedIntAlu * eIntAlu + a.issuedIntMul * eIntMul +
                 a.issuedFpAlu * eFpAlu + a.issuedFpMul * eFpMul +
                 a.issuedMem * eMemPort + a.issuedControl * eIntAlu),
        watts_of(a.il1Accesses * eIl1 + a.itlbAccesses * eItlb),
        watts_of(a.iqOccupancySum * eIqPerEntryCycle +
                 issued_total * eIqSelect),
        watts_of(a.l2Accesses * eL2),
        leakage,
        watts_of(a.lsqOccupancySum * eLsqPerEntryCycle +
                 a.issuedMem * eLsqSearch),
        watts_of(a.memAccesses * eMem),
        watts_of(a.regReads * eRegRead + a.regWrites * eRegWrite),
        watts_of(a.robOccupancySum * eRobPerEntryCycle),
    };
}

PowerBreakdown
PowerModel::breakdown(const ActivityCounts &a) const
{
    PowerBreakdown b;
    if (a.cycles == 0)
        return b;
    std::array<double, kTerms> t = terms(a);
    for (std::size_t i = 0; i < kTerms; ++i)
        b[kTermNames[i]] = t[i];
    return b;
}

double
PowerModel::watts(const ActivityCounts &a) const
{
    double total = 0.0;
    if (a.cycles == 0)
        return total;
    for (double v : terms(a))
        total += v;
    return total;
}

double
PowerModel::leakageWatts() const
{
    return leakage;
}

double
PowerModel::peakDynamicWatts() const
{
    // Every port of every structure active each cycle.
    ActivityCounts a;
    a.cycles = 1;
    a.fetched = a.dispatched = a.committed = cfg.fetchWidth;
    a.issuedIntAlu = cfg.intAluCount;
    a.issuedIntMul = cfg.intMulCount;
    a.issuedFpAlu = cfg.fpAluCount;
    a.issuedFpMul = cfg.fpMulCount;
    a.issuedMem = cfg.memPortCount;
    a.il1Accesses = cfg.fetchWidth / 2 + 1;
    a.dl1Accesses = cfg.memPortCount;
    a.l2Accesses = 1;
    a.itlbAccesses = 1;
    a.dtlbAccesses = cfg.memPortCount;
    a.bpredLookups = 2;
    a.btbLookups = 2;
    a.regReads = 2 * cfg.fetchWidth;
    a.regWrites = cfg.fetchWidth;
    a.iqOccupancySum = cfg.iqSize;
    a.robOccupancySum = cfg.robSize;
    a.lsqOccupancySum = cfg.lsqSize;
    return watts(a) - leakage - clockTreeWatts;
}

} // namespace wavedyn
