#include "dse/objectives.hh"

#include <cassert>
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

double
meanTrace(const TraceRef &t)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < t.size; ++i)
        acc += t.data[i];
    return acc / static_cast<double>(t.size);
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

double
objectiveValue(Objective o, const DomainTraceRefs &traces)
{
    switch (o) {
      case Objective::Cpi:
        return meanTrace(traceOf(Domain::Cpi, traces));
      case Objective::Bips: {
        double cpi = meanTrace(traceOf(Domain::Cpi, traces));
        return cpi > 0.0 ? 1.0 / cpi : 0.0;
      }
      case Objective::Power:
        return meanTrace(traceOf(Domain::Power, traces));
      case Objective::Energy: {
        // Intervals hold a fixed instruction count, so per-interval
        // energy is proportional to power_i * cpi_i; the mean of that
        // product is energy per instruction up to the clock period.
        const TraceRef &cpi = traceOf(Domain::Cpi, traces);
        const TraceRef &power = traceOf(Domain::Power, traces);
        assert(cpi.size == power.size);
        double acc = 0.0;
        for (std::size_t i = 0; i < cpi.size; ++i)
            acc += power.data[i] * cpi.data[i];
        return acc / static_cast<double>(cpi.size);
      }
      case Objective::Avf:
        return meanTrace(traceOf(Domain::Avf, traces));
    }
    return 0.0;
}

double
objectiveScore(Objective o, const DomainTraceRefs &traces)
{
    double v = objectiveValue(o, traces);
    return maximised(o) ? -v : v;
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
