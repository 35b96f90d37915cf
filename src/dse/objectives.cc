#include "dse/objectives.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace wavedyn
{

const std::vector<Objective> &
allObjectives()
{
    static const std::vector<Objective> objectives = {
        Objective::Cpi,  Objective::Bips, Objective::Power,
        Objective::Energy, Objective::Avf,
    };
    return objectives;
}

std::string
objectiveName(Objective o)
{
    switch (o) {
      case Objective::Cpi:
        return "cpi";
      case Objective::Bips:
        return "bips";
      case Objective::Power:
        return "power";
      case Objective::Energy:
        return "energy";
      case Objective::Avf:
        return "avf";
    }
    return "unknown";
}

bool
parseObjective(const std::string &name, Objective &out)
{
    for (Objective o : allObjectives()) {
        if (objectiveName(o) == name) {
            out = o;
            return true;
        }
    }
    return false;
}

std::vector<Objective>
parseObjectiveList(const std::string &list)
{
    auto fail = [](const std::string &what) {
        std::string known;
        for (Objective o : allObjectives())
            known += (known.empty() ? "" : ", ") + objectiveName(o);
        throw std::invalid_argument(what + " (known objectives: " +
                                    known + ")");
    };

    std::vector<Objective> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::string token = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        Objective o;
        if (!parseObjective(token, o))
            fail("unknown objective '" + token + "'");
        for (Objective seen : out)
            if (seen == o)
                fail("duplicate objective '" + token + "'");
        out.push_back(o);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        fail("empty objective list");
    return out;
}

bool
maximised(Objective o)
{
    return o == Objective::Bips;
}

std::vector<Domain>
domainsOf(Objective o)
{
    switch (o) {
      case Objective::Cpi:
      case Objective::Bips:
        return {Domain::Cpi};
      case Objective::Power:
        return {Domain::Power};
      case Objective::Energy:
        return {Domain::Cpi, Domain::Power};
      case Objective::Avf:
        return {Domain::Avf};
    }
    return {};
}

std::vector<Domain>
domainsFor(const std::vector<Objective> &objectives)
{
    std::vector<Domain> out;
    for (Domain d : allDomains()) {
        bool needed = false;
        for (Objective o : objectives)
            for (Domain od : domainsOf(o))
                needed = needed || od == d;
        if (needed)
            out.push_back(d);
    }
    return out;
}

namespace
{

const TraceRef &
traceOf(Domain d, const DomainTraceRefs &traces)
{
    const TraceRef &t = traces[static_cast<std::size_t>(d)];
    assert(t.data != nullptr && t.size > 0);
    return t;
}

DomainTraceRefs
refsOf(const std::map<Domain, std::vector<double>> &traces)
{
    DomainTraceRefs refs;
    for (const auto &entry : traces)
        refs[static_cast<std::size_t>(entry.first)] = {
            entry.second.data(), entry.second.size()};
    return refs;
}

} // anonymous namespace

void
objectiveValues(const Objective *objectives, std::size_t count,
                const DomainTraceRefs &traces, double *out)
{
    if (count == 0)
        return;
    struct
    {
        bool cpi = false, power = false, avf = false;
        bool energy = false; //!< sum of power_i * cpi_i
    } reads;
    for (std::size_t k = 0; k < count; ++k) {
        switch (objectives[k]) {
          case Objective::Cpi:
          case Objective::Bips:
            reads.cpi = true;
            break;
          case Objective::Power:
            reads.power = true;
            break;
          case Objective::Energy:
            reads.energy = true;
            break;
          case Objective::Avf:
            reads.avf = true;
            break;
        }
    }
    TraceRef cpi, power, avf;
    if (reads.cpi || reads.energy)
        cpi = traceOf(Domain::Cpi, traces);
    if (reads.power || reads.energy)
        power = traceOf(Domain::Power, traces);
    if (reads.avf)
        avf = traceOf(Domain::Avf, traces);
    assert(!reads.energy || cpi.size == power.size);

    // Every sum starts at 0.0 and adds in index order, as a
    // per-objective mean does: over the samples every trace read
    // holds together, then each trace's tail alone.
    std::size_t common = SIZE_MAX;
    for (const TraceRef *t : {&cpi, &power, &avf})
        if (t->data != nullptr)
            common = std::min(common, t->size);
    double sumCpi = 0.0, sumPower = 0.0, sumAvf = 0.0, sumEnergy = 0.0;
    for (std::size_t i = 0; i < common; ++i) {
        if (reads.cpi)
            sumCpi += cpi.data[i];
        if (reads.power)
            sumPower += power.data[i];
        if (reads.avf)
            sumAvf += avf.data[i];
        if (reads.energy)
            sumEnergy += power.data[i] * cpi.data[i];
    }
    for (std::size_t i = common; i < cpi.size; ++i) {
        if (reads.cpi)
            sumCpi += cpi.data[i];
        if (reads.energy)
            sumEnergy += power.data[i] * cpi.data[i];
    }
    for (std::size_t i = common; reads.power && i < power.size; ++i)
        sumPower += power.data[i];
    for (std::size_t i = common; i < avf.size; ++i)
        sumAvf += avf.data[i];

    for (std::size_t k = 0; k < count; ++k) {
        switch (objectives[k]) {
          case Objective::Cpi:
            out[k] = sumCpi / static_cast<double>(cpi.size);
            break;
          case Objective::Bips: {
            double mean = sumCpi / static_cast<double>(cpi.size);
            out[k] = mean > 0.0 ? 1.0 / mean : 0.0;
            break;
          }
          case Objective::Power:
            out[k] = sumPower / static_cast<double>(power.size);
            break;
          case Objective::Energy:
            // Intervals hold a fixed instruction count, so per-interval
            // energy is proportional to power_i * cpi_i; the mean of
            // that product is energy per instruction up to the clock
            // period.
            out[k] = sumEnergy / static_cast<double>(cpi.size);
            break;
          case Objective::Avf:
            out[k] = sumAvf / static_cast<double>(avf.size);
            break;
        }
    }
}

void
objectiveScores(const Objective *objectives, std::size_t count,
                const DomainTraceRefs &traces, double *out)
{
    objectiveValues(objectives, count, traces, out);
    for (std::size_t k = 0; k < count; ++k)
        if (maximised(objectives[k]))
            out[k] = -out[k];
}

double
objectiveValue(Objective o, const DomainTraceRefs &traces)
{
    double v;
    objectiveValues(&o, 1, traces, &v);
    return v;
}

double
objectiveScore(Objective o, const DomainTraceRefs &traces)
{
    double v;
    objectiveScores(&o, 1, traces, &v);
    return v;
}

double
objectiveValue(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    return objectiveValue(o, refsOf(traces));
}

double
objectiveScore(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    return objectiveScore(o, refsOf(traces));
}

} // namespace wavedyn
