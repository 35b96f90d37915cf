/**
 * @file
 * Design-space exploration objectives: the scalar figures of merit a
 * design point is judged by. Each objective is computed from the
 * per-interval dynamics traces the predictor (or the real simulator)
 * produces, so predicted and simulated designs are scored by the exact
 * same code path — the predicted-vs-simulated error the explorer
 * reports is an apples-to-apples comparison.
 *
 * All objectives are internally *minimised*; maximised figures (BIPS)
 * are negated by score() so the Pareto machinery only ever minimises.
 */

#ifndef WAVEDYN_DSE_OBJECTIVES_HH
#define WAVEDYN_DSE_OBJECTIVES_HH

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace wavedyn
{

/** Figures of merit the explorer can optimise. */
enum class Objective
{
    Cpi,    //!< mean cycles per instruction (minimise)
    Bips,   //!< mean throughput, 1 / mean CPI (maximise)
    Power,  //!< mean watts (minimise)
    Energy, //!< energy per instruction ~ mean(power_i * cpi_i) (minimise)
    Avf,    //!< mean architectural vulnerability factor (minimise)
};

/** All objectives, declaration order. */
const std::vector<Objective> &allObjectives();

/** CLI name of an objective (e.g. "energy"). */
std::string objectiveName(Objective o);

/** Parse one objective name; returns false on unknown names. */
bool parseObjective(const std::string &name, Objective &out);

/**
 * Parse a comma-separated objective list ("cpi,energy,avf").
 * @throws std::invalid_argument on unknown or duplicate names, or an
 *         empty list, naming the known objectives.
 */
std::vector<Objective> parseObjectiveList(const std::string &list);

/** True for objectives where larger raw values are better (BIPS). */
bool maximised(Objective o);

/**
 * Metric domains whose traces @p o needs (Energy needs Cpi + Power).
 */
std::vector<Domain> domainsOf(Objective o);

/**
 * Union of domainsOf() over @p objectives, allDomains() order — the
 * set of predictors an exploration has to train.
 */
std::vector<Domain> domainsFor(const std::vector<Objective> &objectives);

/** A borrowed trace: @p size doubles at @p data. */
struct TraceRef
{
    const double *data = nullptr;
    std::size_t size = 0;
};

/**
 * Borrowed per-domain traces of one run, indexed by Domain. Domains an
 * objective does not read may stay empty. The sweep scores predicted
 * traces in place through this form, without building a map per point.
 */
using DomainTraceRefs =
    std::array<TraceRef, static_cast<std::size_t>(Domain::IqAvf) + 1>;

/**
 * objectiveValue of @p count objectives at once, written to @p out in
 * the same order; the one implementation. Every sum the objectives
 * read (CPI, power, AVF, power*cpi) is taken in one pass over the
 * traces, each in its own accumulator and index order, so every value
 * has the bytes of computing that objective alone.
 */
void objectiveValues(const Objective *objectives, std::size_t count,
                     const DomainTraceRefs &traces, double *out);

/** objectiveValues folded into minimisation space (BIPS negated). */
void objectiveScores(const Objective *objectives, std::size_t count,
                     const DomainTraceRefs &traces, double *out);

/** objectiveValue over borrowed traces. */
double objectiveValue(Objective o, const DomainTraceRefs &traces);

/** objectiveScore over borrowed traces. */
double objectiveScore(Objective o, const DomainTraceRefs &traces);

/**
 * Raw figure of merit from one run's traces (keyed by domain, equal
 * lengths). CPI/Power/AVF are trace means; Energy is the mean of the
 * interval-wise power*cpi product (per-instruction energy up to the
 * fixed clock factor); BIPS is the inverse mean CPI.
 * @pre every domain in domainsOf(o) is present and non-empty.
 */
double objectiveValue(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

/** objectiveValue folded into minimisation space (BIPS negated). */
double objectiveScore(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

} // namespace wavedyn

#endif // WAVEDYN_DSE_OBJECTIVES_HH
