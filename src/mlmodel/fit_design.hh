/**
 * @file
 * The part of a regression-tree / RBF fit that depends only on the
 * design matrix x, computed once and shared by every fit on that x.
 *
 * The predictor fits one RBF network per selected wavelet coefficient,
 * all on the same design points (core/predictor.hh); only the response
 * vector y differs. A tree grown on one coefficient often revisits a
 * node (an item list) that a tree of another coefficient already grew,
 * so FitDesign memoises, per node and keyed exactly by the node's item
 * list:
 *
 *  - the per-feature sort chains of the split search, with the
 *    positions where adjacent values differ (cuts), and the children
 *    each chosen cut produced;
 *  - the node's centre and half-width;
 *  - the seeded unit's radius and response column over every row,
 *    with the column's mean
 *    and the squared norm of the column centred on it (forward
 *    selection).
 *
 * Why a hit is exact: item lists are always ascending (the root is
 * 0..n-1 and each child filters its parent's list in order), and every
 * memoised value is a pure function of (items, x, radius options) —
 * std::sort's output is a pure function of its input sequence and the
 * comparison outcomes. A hit returns the doubles a recomputation would.
 *
 * Why a miss is exact:
 *
 *  - chains sort (rank, index) pairs with the same std::sort the plain
 *    fit used on indices. A column's ranks number its distinct values
 *    in ascending order (equal values share a rank), so every
 *    comparison has the outcome `x(a, f) < x(b, f)` had, and the
 *    permutation is the same;
 *  - a unit's response sums, per row and in dimension order, squared
 *    distances taken from a table keyed by (dimension, rank): each
 *    entry is the `z * z` RbfNetwork::responseAt computes for that
 *    value, and the row's one exp sees the same sum. Values that share
 *    a rank are equal, so bitwise the same or -0.0 and +0.0; for those
 *    two, x - centre is -centre (or a zero) either way and z * z is
 *    the same;
 *  - a cut's threshold is the same midpoint of the same two chain
 *    values, formed only for the cut that wins.
 *
 * A FitDesign holds no global or thread-local state; it lives as long
 * as one predictor's training and is not shared between threads.
 *
 * @pre x holds no NaN (the constructor throws std::invalid_argument).
 */

#ifndef WAVEDYN_MLMODEL_FIT_DESIGN_HH
#define WAVEDYN_MLMODEL_FIT_DESIGN_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/matrix.hh"

namespace wavedyn
{

/** Shared, memoised design-only state of fits on one design matrix. */
class FitDesign
{
  public:
    /**
     * The memoised record of one node, keyed by its item list. Its
     * arrays live in the design's arena and are freed with it.
     */
    struct Node
    {
        template <typename T>
        using Array = std::pmr::vector<T>;

        explicit Node(std::pmr::memory_resource *arena)
            : items(arena), center(arena), halfWidth(arena), chain(arena),
              cutBegin(arena), cuts(arena), splits(arena), radius(arena),
              column(arena)
        {
        }

        Array<std::uint32_t> items; //!< ascending rows (the key)
        Array<double> center;       //!< per-dim mean
        Array<double> halfWidth;    //!< per-dim half extent

        bool hasChains = false;
        //! dims() chains of items.size() rows; chain f starts at
        //! f * items.size() and is the sort by feature f of chain f-1
        //! (of items for f = 0), as the split search chains them.
        Array<std::uint32_t> chain;
        //! Cut positions pos (chain value at pos != at pos + 1) of
        //! feature f are cuts[cutBegin[f], cutBegin[f + 1]).
        Array<std::uint32_t> cutBegin;
        Array<std::uint32_t> cuts;
        //! Children grown so far: (cut, left record, right record).
        Array<std::array<std::size_t, 3>> splits;

        bool hasResponse = false;
        Array<double> radius; //!< seeded unit's theta
        Array<double> column; //!< unit response at every row
        double mean = 0.0;          //!< mean of column
        double centredNorm = 0.0;   //!< squared norm of column - mean
    };

    /**
     * @param x design matrix (rows are design vectors); not copied,
     *        so it must outlive the design.
     * @param radiusScale,radiusFloor the unit radius of a node,
     *        max(radiusScale * halfWidth, radiusFloor) per dimension
     *        (RbfOptions); only response() reads them, so a design
     *        that only trees read may keep the defaults.
     * @throws std::invalid_argument when x holds a NaN or has more
     *         rows than a 32-bit index holds.
     */
    FitDesign(const Matrix &x, double radiusScale = 1.0,
              double radiusFloor = 0.0);

    std::size_t rows() const { return design.rows(); }
    std::size_t dims() const { return design.cols(); }
    double radiusScale() const { return unitScale; }
    double radiusFloor() const { return unitFloor; }

    /**
     * Id of the record for an ascending item list: found by full
     * comparison, or created with its centre and half-width.
     */
    std::size_t node(const std::vector<std::uint32_t> &items);

    /**
     * A record by id. Ids stay valid for the design's lifetime; a
     * reference to a record (from here, chains() or response()) only
     * until the next node() or split() adds one.
     */
    const Node &at(std::size_t id) const { return records[id]; }

    /** The record with its sort chains and cuts filled. */
    const Node &chains(std::size_t id);

    /**
     * Threshold of a cut: the midpoint of the chain values on either
     * side, 0.5 * (a + b). @pre chains() filled @p n.
     */
    double threshold(const Node &n, std::size_t feature,
                     std::size_t cut) const;

    /**
     * Records of the two children a split at cut @p cut (of feature
     * @p feature) makes: the items with x(i, feature) below the cut's
     * threshold, and the rest, each in item order. Memoised per cut.
     * @pre chains(id) was called.
     */
    std::pair<std::size_t, std::size_t>
    split(std::size_t id, std::size_t feature, std::size_t cut);

    /** The record with its radius, response column, mean and norm. */
    const Node &response(std::size_t id);

    /** Records created so far, and lookups that found one. */
    std::size_t nodeCount() const { return records.size(); }
    std::size_t nodeHits() const { return hits; }

  private:
    void fillChains(Node &n);
    void fillResponse(Node &n);

    const Matrix &design;
    double unitScale;
    double unitFloor;
    //! rank[f * rows + r]: rank of x(r, f) among column f's distinct
    //! values, ascending (equal values share a rank).
    std::vector<std::uint32_t> rank;
    //! Column f's distinct values, ascending, are
    //! levelValue[levelBegin[f] + rank].
    std::vector<double> levelValue;
    std::vector<std::uint32_t> levelBegin;

    //! Every record's arrays and the index's entries: allocation is a
    //! pointer bump, and all of it is released at once with the design.
    std::pmr::monotonic_buffer_resource arena;
    std::vector<Node> records;
    //! item-list hash -> first record id of that hash; records with
    //! the same hash are linked through collisions.
    std::pmr::unordered_map<std::uint64_t, std::size_t> index;
    std::vector<std::size_t> collisions;
    std::size_t hits = 0;

    // node(), split(), fillChains and fillResponse scratch, reused
    // across nodes.
    std::vector<double> loScratch;
    std::vector<double> hiScratch;
    std::vector<std::uint64_t> keyScratch;
    std::vector<std::uint32_t> cutScratch;
    std::vector<std::uint32_t> leftScratch;
    std::vector<std::uint32_t> rightScratch;
    std::vector<double> z2Scratch;
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_FIT_DESIGN_HH
