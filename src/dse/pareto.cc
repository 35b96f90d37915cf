#include "dse/pareto.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace wavedyn
{

bool
dominates(const std::vector<double> &a, const std::vector<double> &b)
{
    assert(a.size() == b.size());
    return dominates(a.data(), b.data(), a.size());
}

bool
dominates(const double *a, const double *b, std::size_t n)
{
    bool strict = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] > b[i])
            return false;
        if (a[i] < b[i])
            strict = true;
    }
    return strict;
}

bool
canonicalLess(const FrontPoint &a, const FrontPoint &b)
{
    if (a.scores != b.scores)
        return a.scores < b.scores;
    return a.point < b.point;
}

namespace
{

/**
 * Front of points[lo, hi) (canonically sorted) by Kung's divide and
 * conquer: the top half's front survives unconditionally (no
 * lexicographically-later point can dominate an earlier one), and the
 * bottom half's front is filtered against it.
 */
std::vector<FrontPoint>
kungFront(const std::vector<FrontPoint> &points, std::size_t lo,
          std::size_t hi)
{
    if (hi - lo <= 1)
        return {points.begin() + lo, points.begin() + hi};

    std::size_t mid = lo + (hi - lo) / 2;
    std::vector<FrontPoint> top = kungFront(points, lo, mid);
    std::vector<FrontPoint> bottom = kungFront(points, mid, hi);

    std::vector<FrontPoint> out = std::move(top);
    std::size_t survivors = out.size();
    for (auto &b : bottom) {
        bool dominated = false;
        for (std::size_t t = 0; t < survivors && !dominated; ++t)
            dominated = dominates(out[t].scores, b.scores);
        if (!dominated)
            out.push_back(std::move(b));
    }
    return out;
}

/** Two-objective fast path: one linear scan over the sorted points. */
std::vector<FrontPoint>
front2d(std::vector<FrontPoint> points)
{
    // Sorted by (s0 asc, s1 asc, point). Within an equal-s0 group only
    // the minimal-s1 points can survive (anything above the group
    // minimum is dominated by it), and the group survives iff its
    // minimum strictly beats the best s1 of every smaller-s0 group (an
    // equal s1 at larger s0 is dominated by the earlier point).
    std::vector<FrontPoint> out;
    bool haveBest = false;
    double bestS1 = 0.0;
    std::size_t i = 0;
    while (i < points.size()) {
        double s0 = points[i].scores[0];
        double groupMin = points[i].scores[1];
        // Point i is in its own tie group even when a NaN score makes
        // it unequal to itself; the scan must always move on.
        std::size_t tiesEnd = i + 1;
        while (tiesEnd < points.size() &&
               points[tiesEnd].scores[0] == s0 &&
               points[tiesEnd].scores[1] == groupMin)
            ++tiesEnd;
        if (!haveBest || groupMin < bestS1) {
            for (std::size_t k = i; k < tiesEnd; ++k)
                out.push_back(std::move(points[k]));
            haveBest = true;
            bestS1 = groupMin;
        }
        i = tiesEnd;
        while (i < points.size() && points[i].scores[0] == s0)
            ++i; // rest of the group is dominated by its minimum
    }
    return out;
}

} // anonymous namespace

std::vector<FrontPoint>
paretoFront(std::vector<FrontPoint> points)
{
    if (points.empty())
        return points;
#ifndef NDEBUG
    for (const auto &p : points)
        assert(p.scores.size() == points.front().scores.size() &&
               !p.scores.empty());
#endif
    std::sort(points.begin(), points.end(), canonicalLess);

    std::vector<FrontPoint> front;
    if (points.front().scores.size() == 1) {
        // Sorted ascending: the frontier is the leading run of minimal
        // scores (exact ties all survive).
        double best = points.front().scores[0];
        for (auto &p : points) {
            if (p.scores[0] > best)
                break;
            front.push_back(std::move(p));
        }
    } else if (points.front().scores.size() == 2) {
        front = front2d(std::move(points));
    } else {
        front = kungFront(points, 0, points.size());
    }

    std::sort(front.begin(), front.end(), canonicalLess);
    return front;
}

ChunkFront::ChunkFront(std::size_t objectives, std::size_t capacity)
    : nobj(objectives)
{
    assert(objectives >= 1);
    rows.reserve(capacity * stride());
    ids.reserve(capacity);
}

double *
ChunkFront::nextRow()
{
    rows.resize((ids.size() + 1) * stride());
    return rows.data() + ids.size() * stride();
}

void
ChunkFront::add(std::size_t id)
{
    assert(rows.size() == (ids.size() + 1) * stride());
    const auto row = static_cast<std::uint32_t>(ids.size());
    ids.push_back(id);
    if (unordered)
        return;
    const double *scores = rows.data() + row * stride();
    for (std::size_t k = 0; k < nobj; ++k) {
        if (std::isnan(scores[k])) {
            unordered = true;
            return;
        }
    }
    for (std::uint32_t r : keep)
        if (dominates(rows.data() + r * stride(), scores, nobj))
            return;
    keep.erase(std::remove_if(keep.begin(), keep.end(),
                              [&](std::uint32_t r) {
                                  return dominates(
                                      scores, rows.data() + r * stride(),
                                      nobj);
                              }),
               keep.end());
    keep.push_back(row);
}

std::vector<FrontPoint>
ChunkFront::front(
    const std::function<DesignPoint(std::size_t)> &pointOf) const
{
    std::vector<FrontPoint> points;
    auto emit = [&](std::size_t r) {
        const double *row = rows.data() + r * stride();
        FrontPoint fp;
        fp.point = pointOf(ids[r]);
        fp.scores.assign(row, row + nobj);
        fp.values.assign(row + nobj, row + 2 * nobj);
        fp.uncertainty = row[2 * nobj];
        points.push_back(std::move(fp));
    };
    if (unordered) {
        points.reserve(ids.size());
        for (std::size_t r = 0; r < ids.size(); ++r)
            emit(r);
    } else {
        points.reserve(keep.size());
        for (std::uint32_t r : keep)
            emit(r);
    }
    return paretoFront(std::move(points));
}

std::vector<FrontPoint>
mergeFronts(std::vector<std::vector<FrontPoint>> shards)
{
    std::vector<FrontPoint> all;
    std::size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    all.reserve(total);
    for (auto &s : shards)
        for (auto &p : s)
            all.push_back(std::move(p));
    return paretoFront(std::move(all));
}

} // namespace wavedyn
