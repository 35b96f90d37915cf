/**
 * @file
 * Multi-objective Pareto frontier extraction for design-space
 * exploration.
 *
 * All objective scores are minimised (dse/objectives.hh folds
 * maximised figures by negation before they reach this layer). The
 * frontier of a point set is its non-dominated subset; extraction is
 * Kung's divide-and-conquer over a canonical lexicographic sort —
 * O(n log n) for the one/two-objective cases and
 * O(n log n + f_T * f_B) per merge level in general (f_* are
 * sub-front sizes, tiny against n for the spaces explored here).
 *
 * Determinism contract: the frontier is a pure function of the input
 * *set* — input order, sharding, and worker count cannot change it.
 * Output is always in canonical order (lexicographic by score vector,
 * then by design point), so rendered frontiers are byte-stable.
 */

#ifndef WAVEDYN_DSE_PARETO_HH
#define WAVEDYN_DSE_PARETO_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/design_space.hh"

namespace wavedyn
{

/** One scored design point of an exploration sweep. */
struct FrontPoint
{
    DesignPoint point;          //!< concrete parameter values
    std::vector<double> scores; //!< minimised objective scores
    std::vector<double> values; //!< raw objective values (for display)
    double uncertainty = 0.0;   //!< predictor-uncertainty rank key
};

/**
 * True when @p a dominates @p b: a <= b in every score and a < b in at
 * least one. Equal vectors dominate in neither direction.
 * @pre equal sizes.
 */
bool dominates(const std::vector<double> &a, const std::vector<double> &b);

/** dominates() over @p n scores at @p a and @p b; the one rule. */
bool dominates(const double *a, const double *b, std::size_t n);

/**
 * Canonical ordering of front points: lexicographic by score vector,
 * ties broken by the design point. Strict weak ordering over the
 * points a sweep produces (distinct design points).
 */
bool canonicalLess(const FrontPoint &a, const FrontPoint &b);

/**
 * Extract the Pareto frontier (non-dominated subset) of @p points,
 * returned in canonical order. Points with identical score vectors
 * dominate neither direction, so exact-tie sets survive together.
 * @pre every point has the same number of scores (>= 1).
 */
std::vector<FrontPoint> paretoFront(std::vector<FrontPoint> points);

/**
 * One sweep chunk's scored points as flat rows, reduced online to the
 * rows no other row dominates. A row is the point's scores, then its
 * values (one per objective each), then its uncertainty.
 *
 * As dominance is transitive, the kept rows are exactly the chunk's
 * frontier, and front() — FrontPoints for the kept rows only, then
 * paretoFront — equals paretoFront over every point's FrontPoint:
 * dropping a dominated point never changes the front. A NaN score
 * breaks that transitivity, so from the first one on every row is
 * kept and front() hands all of them to paretoFront in add() order.
 */
class ChunkFront
{
  public:
    /** @p capacity rows are reserved up front. @pre objectives >= 1. */
    explicit ChunkFront(std::size_t objectives, std::size_t capacity = 0);

    /** Doubles per row: two per objective, plus the uncertainty. */
    std::size_t stride() const { return 2 * nobj + 1; }

    /**
     * Storage for the next point's row; write it, then call add().
     * Valid until the next nextRow().
     */
    double *nextRow();

    /**
     * Take the row written at nextRow() as design point @p id: keep
     * it unless a kept row dominates it, and drop the kept rows it
     * dominates.
     */
    void add(std::size_t id);

    /** Rows add() has kept so far. */
    std::size_t kept() const
    {
        return unordered ? ids.size() : keep.size();
    }

    /**
     * The chunk's frontier in canonical order, as paretoFront returns
     * it; @p pointOf maps an add() id to its design point.
     */
    std::vector<FrontPoint>
    front(const std::function<DesignPoint(std::size_t)> &pointOf) const;

  private:
    std::size_t nobj;
    std::vector<double> rows;        //!< every added row, add() order
    std::vector<std::size_t> ids;    //!< add() id of each row
    std::vector<std::uint32_t> keep; //!< kept row indices
    bool unordered = false;          //!< a NaN score was added
};

/**
 * Merge per-shard frontiers into the global frontier. Because
 * dominance is transitive, front(union of shard fronts) equals
 * front(union of shards) — workers can reduce chunks locally and this
 * merge loses nothing.
 */
std::vector<FrontPoint>
mergeFronts(std::vector<std::vector<FrontPoint>> shards);

} // namespace wavedyn

#endif // WAVEDYN_DSE_PARETO_HH
