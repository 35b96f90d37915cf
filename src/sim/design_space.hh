/**
 * @file
 * The microarchitecture design space of the paper (Table 2): nine
 * superscalar parameters with discrete level sets, plus disjoint
 * train/test level subsets. The DVM case study (Section 5) extends the
 * space with policy parameters, so the space is a mutable collection.
 *
 * Design points are concrete parameter values; models consume the
 * normalised encoding (level index scaled to [0,1]) so all dimensions
 * are comparable inside distance-based models.
 */

#ifndef WAVEDYN_SIM_DESIGN_SPACE_HH
#define WAVEDYN_SIM_DESIGN_SPACE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace wavedyn
{

/** A concrete design point: one value per parameter, space order. */
using DesignPoint = std::vector<double>;

/** One design-space dimension. */
struct Parameter
{
    std::string name;                //!< e.g. "ROB_size"
    std::vector<double> trainLevels; //!< ascending concrete values
    std::vector<double> testLevels;  //!< subset used for test sampling

    /** Number of training levels. */
    std::size_t levels() const { return trainLevels.size(); }

    /**
     * Index of a value within trainLevels.
     * @throws std::invalid_argument naming the parameter and value
     *         when the value is not a training level.
     */
    std::size_t levelIndex(double value) const;

    /** Normalised coordinate of a value: index / (levels-1). */
    double normalize(double value) const;
};

/** Indices of the paper's nine parameters in paper() order. */
enum PaperParam : std::size_t
{
    FetchWidth = 0,
    RobSize,
    IqSize,
    LsqSize,
    L2Size,
    L2Lat,
    Il1Size,
    Dl1Size,
    Dl1Lat,
    PaperParamCount,
};

/**
 * A discrete, level-based design space.
 */
class DesignSpace
{
  public:
    /** Empty space; add parameters or use paper(). */
    DesignSpace() = default;

    /** The paper's Table 2 space, nine parameters in PaperParam order. */
    static DesignSpace paper();

    /** Append a dimension; returns its index. */
    std::size_t addParameter(Parameter p);

    std::size_t dimensions() const { return params.size(); }

    const Parameter &param(std::size_t i) const { return params.at(i); }

    /** Find a parameter index by name; asserts when absent. */
    std::size_t paramIndex(const std::string &name) const;

    /** Total number of distinct training configurations. */
    std::size_t trainSpaceSize() const;

    /** Map a concrete point to the normalised [0,1]^d encoding. */
    std::vector<double> normalize(const DesignPoint &point) const;

    /** Build a point from per-dimension training level indices. */
    DesignPoint pointFromTrainIndices(
        const std::vector<std::size_t> &idx) const;

    /** Build a point from per-dimension test level indices. */
    DesignPoint pointFromTestIndices(
        const std::vector<std::size_t> &idx) const;

    /**
     * Training level index of every coordinate of an on-grid point:
     * the inverse of pointFromTrainIndices().
     * @throws std::invalid_argument with validationError() text when
     *         the point is not on the training grid.
     */
    std::vector<std::size_t> trainIndices(const DesignPoint &point) const;

    /**
     * Decode a flat enumeration index into per-dimension training
     * level indices (mixed-radix, last dimension fastest), written to
     * @p idx (resized to dimensions()). Lets a sweep stream the full
     * cross-product — trainSpaceSize() is 10^5-10^6 for realistic
     * spaces — in chunks without ever materialising the point list.
     * @throws std::out_of_range, naming @p flat and the space size,
     *         when flat >= trainSpaceSize().
     */
    void flatTrainIndices(std::size_t flat,
                          std::vector<std::size_t> &idx) const;

    /**
     * The training configuration at a flat enumeration index.
     * @throws std::out_of_range when flat >= trainSpaceSize().
     */
    DesignPoint pointFromFlatTrainIndex(std::size_t flat) const;

    /** All parameter names in order. */
    std::vector<std::string> names() const;

    /** Validate a point (dimension count, values on train levels). */
    bool valid(const DesignPoint &point) const;

    /**
     * Why a point is invalid: names the offending coordinate (its
     * parameter and the allowed training levels) or the dimension
     * mismatch. Empty string when the point is valid. The message a
     * tool should show instead of silently extrapolating outside the
     * trained grid.
     */
    std::string validationError(const DesignPoint &point) const;

  private:
    std::vector<Parameter> params;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_DESIGN_SPACE_HH
