#include "cache/store.hh"

#include "telemetry/telemetry.hh"
#include "util/atomic_file.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace wavedyn
{

namespace
{

constexpr char kMagic[4] = {'W', 'D', 'R', 'C'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr char kEntrySuffix[] = ".wdr";
constexpr std::uint64_t kChecksumBasis = 0xcbf29ce484222325ull;

// Record limits: a sim-version tag is a short identifier and a payload
// is bounded by interval count; anything outside these is a corrupt
// length field, rejected before allocating.
constexpr std::uint64_t kMaxVersionBytes = 256;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;
// magic + format + version length + version + payload length +
// payload + checksum.
constexpr std::uint64_t kMaxRecordBytes =
    4 + 4 + 8 + kMaxVersionBytes + 8 + kMaxPayloadBytes + 8;

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/** Little-endian u64 at @p p (the record's byte order). Written out
 *  byte by byte so optimising compilers fold it into one load. */
std::uint64_t
loadU64(const unsigned char *p)
{
    return static_cast<std::uint64_t>(p[0]) |
           static_cast<std::uint64_t>(p[1]) << 8 |
           static_cast<std::uint64_t>(p[2]) << 16 |
           static_cast<std::uint64_t>(p[3]) << 24 |
           static_cast<std::uint64_t>(p[4]) << 32 |
           static_cast<std::uint64_t>(p[5]) << 40 |
           static_cast<std::uint64_t>(p[6]) << 48 |
           static_cast<std::uint64_t>(p[7]) << 56;
}

double
loadDouble(const unsigned char *p)
{
    std::uint64_t bits = loadU64(p);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** Little-endian reader over a byte range; `ok` latches any overrun.
 *  Fields are read in place — nothing is copied out of the range. */
struct ByteReader
{
    const unsigned char *data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    /** Start of the next @p n bytes, or nullptr (and !ok) past end. */
    const unsigned char *take(std::size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return nullptr;
        }
        const unsigned char *at = data + pos;
        pos += n;
        return at;
    }

    std::uint32_t u32()
    {
        const unsigned char *at = take(4);
        if (at == nullptr)
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
        return v;
    }

    std::uint64_t u64()
    {
        const unsigned char *at = take(8);
        return at != nullptr ? loadU64(at) : 0;
    }
};

std::string
encodePayload(const SimResult &result)
{
    std::string p;
    p.reserve(64 + result.intervals.size() * 12 * 8);
    putU64(p, result.intervals.size());
    for (const IntervalSample &s : result.intervals) {
        putDouble(p, s.cpi);
        putDouble(p, s.ipc);
        putDouble(p, s.power);
        putDouble(p, s.avf);
        putDouble(p, s.iqAvf);
        putDouble(p, s.robAvf);
        putDouble(p, s.lsqAvf);
        putDouble(p, s.dl1MissRate);
        putDouble(p, s.l2MissRate);
        putDouble(p, s.bpredMissRate);
        putU64(p, s.cycles);
        putU64(p, s.instructions);
    }
    putU64(p, result.totalCycles);
    putU64(p, result.totalInstructions);
    putU64(p, result.dvmStats.samples);
    putU64(p, result.dvmStats.triggers);
    putU64(p, result.dvmStats.stallL2Cycles);
    putU64(p, result.dvmStats.stallRatioCycles);
    putDouble(p, result.dvmFinalWqRatio);
    return p;
}

// Payload layout: interval count u64, then per interval ten doubles
// and two u64s, then a fixed trailer of six u64s and one double.
constexpr std::size_t kIntervalBytes = 12 * 8;
constexpr std::size_t kTrailerBytes = 7 * 8;

/**
 * Decode a payload into @p out, reusing its interval storage. Every
 * field is fixed-width, so a payload is well-formed exactly when its
 * size matches its interval count; that is checked before anything is
 * written. On false @p out is untouched.
 */
bool
decodePayloadInto(const unsigned char *p, std::size_t size,
                  SimResult &out)
{
    if (size < 8 + kTrailerBytes)
        return false;
    std::uint64_t n = loadU64(p);
    // An n the payload cannot possibly hold is a corrupt count,
    // rejected before the size product could overflow.
    if (n > size / kIntervalBytes ||
        size != 8 + n * kIntervalBytes + kTrailerBytes)
        return false;
    p += 8;
    out.intervals.resize(static_cast<std::size_t>(n));
    for (IntervalSample &s : out.intervals) {
        s.cpi = loadDouble(p);
        s.ipc = loadDouble(p + 8);
        s.power = loadDouble(p + 16);
        s.avf = loadDouble(p + 24);
        s.iqAvf = loadDouble(p + 32);
        s.robAvf = loadDouble(p + 40);
        s.lsqAvf = loadDouble(p + 48);
        s.dl1MissRate = loadDouble(p + 56);
        s.l2MissRate = loadDouble(p + 64);
        s.bpredMissRate = loadDouble(p + 72);
        s.cycles = loadU64(p + 80);
        s.instructions = loadU64(p + 88);
        p += kIntervalBytes;
    }
    out.totalCycles = loadU64(p);
    out.totalInstructions = loadU64(p + 8);
    out.dvmStats.samples = loadU64(p + 16);
    out.dvmStats.triggers = loadU64(p + 24);
    out.dvmStats.stallL2Cycles = loadU64(p + 32);
    out.dvmStats.stallRatioCycles = loadU64(p + 40);
    out.dvmFinalWqRatio = loadDouble(p + 48);
    return true;
}

/** A parsed record envelope: views into the record's own bytes. */
struct RecordView
{
    std::string_view version;
    const unsigned char *payload = nullptr;
    std::size_t payloadSize = 0;
};

/**
 * Parse the record envelope: magic/format/version/size/payload/
 * checksum, and that nothing follows the checksum. On success fills
 * @p view; any defect returns false.
 */
bool
openRecord(const char *bytes, std::size_t size, RecordView &view)
{
    ByteReader r{reinterpret_cast<const unsigned char *>(bytes), size};
    const unsigned char *magic = r.take(4);
    if (magic == nullptr || std::memcmp(magic, kMagic, 4) != 0)
        return false;
    if (r.u32() != kFormatVersion || !r.ok)
        return false;
    std::uint64_t versionLen = r.u64();
    if (!r.ok || versionLen > kMaxVersionBytes)
        return false;
    const unsigned char *version =
        r.take(static_cast<std::size_t>(versionLen));
    std::uint64_t payloadLen = r.u64();
    if (!r.ok || payloadLen > kMaxPayloadBytes)
        return false;
    const unsigned char *payload =
        r.take(static_cast<std::size_t>(payloadLen));
    std::uint64_t checksum = r.u64();
    if (!r.ok || r.pos != size)
        return false;
    if (checksum != fnv1a64(reinterpret_cast<const char *>(payload),
                            static_cast<std::size_t>(payloadLen),
                            kChecksumBasis))
        return false;
    view.version = std::string_view(
        reinterpret_cast<const char *>(version),
        static_cast<std::size_t>(versionLen));
    view.payload = payload;
    view.payloadSize = static_cast<std::size_t>(payloadLen);
    return true;
}

/** Owns one open file descriptor. */
struct FileHandle
{
    int fd;

    explicit FileHandle(int f) : fd(f) {}
    ~FileHandle()
    {
        if (fd >= 0)
            ::close(fd);
    }
    FileHandle(const FileHandle &) = delete;
    FileHandle &operator=(const FileHandle &) = delete;
};

/**
 * Read a whole regular file into @p out with one open and a sized
 * read. Anything else at the path — nothing, a directory, a FIFO — a
 * file larger than any record can be, or a read that comes up short of
 * the size fstat reported (the file was truncated or replaced
 * mid-read) fails; callers treat that as a miss. O_NONBLOCK keeps
 * opening a FIFO from waiting for a writer.
 */
bool
readFile(const std::string &path, std::string &out)
{
    FileHandle file(
        ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
    struct stat st;
    if (file.fd < 0 || ::fstat(file.fd, &st) != 0 ||
        !S_ISREG(st.st_mode) ||
        static_cast<std::uint64_t>(st.st_size) > kMaxRecordBytes)
        return false;
    std::size_t size = static_cast<std::size_t>(st.st_size);
    out.resize(size);
    std::size_t got = 0;
    while (got < size) {
        ssize_t n = ::read(file.fd, &out[got], size - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    return true;
}

/** Decode a whole record into @p out (untouched on false). */
bool
decodeRecordInto(const std::string &bytes, const std::string &simVersion,
                 SimResult &out)
{
    RecordView view;
    return openRecord(bytes.data(), bytes.size(), view) &&
           view.version == simVersion &&
           decodePayloadInto(view.payload, view.payloadSize, out);
}

bool
recordValid(const std::string &path, const std::string &simVersion,
            bool &versionMatch)
{
    versionMatch = false;
    std::string bytes;
    if (!readFile(path, bytes))
        return false;
    RecordView view;
    SimResult scratch;
    if (!openRecord(bytes.data(), bytes.size(), view) ||
        !decodePayloadInto(view.payload, view.payloadSize, scratch))
        return false;
    versionMatch = view.version == simVersion;
    return true;
}

std::mutex activeCacheMutex;
std::shared_ptr<ResultCache> activeCache;

} // namespace

std::string
encodeSimResult(const SimResult &result, const std::string &simVersion)
{
    std::string payload = encodePayload(result);
    std::string out;
    out.reserve(4 + 4 + 8 + simVersion.size() + 8 + payload.size() + 8);
    out.append(kMagic, 4);
    putU32(out, kFormatVersion);
    putU64(out, simVersion.size());
    out.append(simVersion);
    putU64(out, payload.size());
    out.append(payload);
    putU64(out, fnv1a64(payload, kChecksumBasis));
    return out;
}

std::int64_t
cacheClockNow()
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               fs::file_time_type::clock::now().time_since_epoch())
        .count();
}

std::optional<SimResult>
decodeSimResult(const std::string &bytes, const std::string &simVersion)
{
    SimResult result;
    if (!decodeRecordInto(bytes, simVersion, result))
        return std::nullopt;
    return result;
}

ResultCache::ResultCache(std::string root, std::string simVersion)
    : rootDir(std::move(root)), version(std::move(simVersion))
{
    std::error_code ec;
    fs::create_directories(rootDir, ec);
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return entryPathOf(key.hex());
}

std::string
ResultCache::entryPathOf(const std::string &hex) const
{
    return rootDir + "/" + hex.substr(0, 2) + "/" + hex.substr(2, 2) +
           "/" + hex + kEntrySuffix;
}

namespace
{

/** Interned once; recording is relaxed atomic adds (telemetry
 *  observes the cache, it never participates in it). */
struct CacheIoMetrics
{
    MetricId loadUs;   //!< whole load: read + decode
    MetricId decodeUs; //!< decode alone, to split I/O from codec cost
    MetricId writeUs;  //!< whole store: encode + atomic publish
    MetricId memHits;  //!< loads served by the in-memory LRU layer

    static const CacheIoMetrics &
    get()
    {
        static CacheIoMetrics m = [] {
            auto &reg = metricsRegistry();
            CacheIoMetrics c;
            c.loadUs = reg.histogram("cache.load_us");
            c.decodeUs = reg.histogram("cache.decode_us");
            c.writeUs = reg.histogram("cache.write_us");
            c.memHits = reg.counter("cache.mem_hits");
            return c;
        }();
        return m;
    }
};

} // namespace

std::optional<SimResult>
ResultCache::load(const CacheKey &key)
{
    SimResult result;
    if (!loadInto(key, result))
        return std::nullopt;
    return result;
}

bool
ResultCache::loadInto(const CacheKey &key, SimResult &out)
{
    const CacheIoMetrics &tm = CacheIoMetrics::get();
    std::uint64_t loadStart = telemetryNowUs();
    std::string hex = key.hex();
    {
        std::lock_guard<std::mutex> lock(memMu);
        if (memCap != 0) {
            auto it = memIndex.find(hex);
            if (it != memIndex.end()) {
                memList.splice(memList.begin(), memList, it->second);
                out = it->second->second;
                nHits.fetch_add(1, std::memory_order_relaxed);
                nMemHits.fetch_add(1, std::memory_order_relaxed);
                metricsRegistry().add(tm.memHits, 1);
                metricsRegistry().observe(tm.loadUs,
                                          telemetryNowUs() - loadStart);
                return true;
            }
        }
    }
    // One record buffer per thread, reused across loads: a warm probe
    // reads every entry into the same storage and decodes from it in
    // place.
    thread_local std::string bytes;
    if (!readFile(entryPathOf(hex), bytes)) {
        nMisses.fetch_add(1, std::memory_order_relaxed);
        metricsRegistry().observe(tm.loadUs,
                                  telemetryNowUs() - loadStart);
        return false;
    }
    std::uint64_t decodeStart = telemetryNowUs();
    bool ok = decodeRecordInto(bytes, version, out);
    std::uint64_t decodeEnd = telemetryNowUs();
    metricsRegistry().observe(tm.decodeUs, decodeEnd - decodeStart);
    metricsRegistry().observe(tm.loadUs, decodeEnd - loadStart);
    if (!ok) {
        nBad.fetch_add(1, std::memory_order_relaxed);
        nMisses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    nHits.fetch_add(1, std::memory_order_relaxed);
    memoryPut(hex, out);
    return true;
}

bool
ResultCache::store(const CacheKey &key, const SimResult &result)
{
    const CacheIoMetrics &tm = CacheIoMetrics::get();
    std::uint64_t storeStart = telemetryNowUs();
    std::string finalPath = entryPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(finalPath).parent_path(), ec);
    if (ec) {
        nStoreFailures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::string record = encodeSimResult(result, version);
    bool published = writeFileAtomic(finalPath, record);
    // An empty directory squatting on the entry path reads as a miss
    // and would block every publish; clear it and retry once. A
    // non-empty one is never removed — that is not the cache's data.
    if (!published && fs::is_directory(finalPath, ec) &&
        fs::remove(finalPath, ec))
        published = writeFileAtomic(finalPath, record);
    if (!published) {
        nStoreFailures.fetch_add(1, std::memory_order_relaxed);
        metricsRegistry().observe(tm.writeUs,
                                  telemetryNowUs() - storeStart);
        return false;
    }
    nStores.fetch_add(1, std::memory_order_relaxed);
    metricsRegistry().observe(tm.writeUs,
                              telemetryNowUs() - storeStart);
    memoryPut(key.hex(), result);
    return true;
}

void
ResultCache::memoryPut(const std::string &keyHex, const SimResult &result)
{
    std::lock_guard<std::mutex> lock(memMu);
    if (memCap == 0)
        return;
    auto it = memIndex.find(keyHex);
    if (it != memIndex.end()) {
        it->second->second = result;
        memList.splice(memList.begin(), memList, it->second);
        return;
    }
    memList.emplace_front(keyHex, result);
    memIndex.emplace(keyHex, memList.begin());
    while (memList.size() > memCap) {
        memIndex.erase(memList.back().first);
        memList.pop_back();
    }
}

void
ResultCache::setMemoryCapacity(std::size_t maxEntries)
{
    std::lock_guard<std::mutex> lock(memMu);
    memCap = maxEntries;
    while (memList.size() > memCap) {
        memIndex.erase(memList.back().first);
        memList.pop_back();
    }
}

std::size_t
ResultCache::memoryCapacity() const
{
    std::lock_guard<std::mutex> lock(memMu);
    return memCap;
}

bool
ResultCache::probeWritable() const
{
    std::error_code ec;
    fs::create_directories(rootDir, ec);
    if (ec)
        return false;
    char probeName[64];
    std::snprintf(probeName, sizeof(probeName), ".probe.%llu",
                  static_cast<unsigned long long>(getpid()));
    std::string probePath = (fs::path(rootDir) / probeName).string();
    if (!writeFileAtomic(probePath, "wavedyn"))
        return false;
    fs::remove(probePath, ec);
    return true;
}

ResultCacheStats
ResultCache::stats() const
{
    ResultCacheStats s;
    s.hits = nHits.load(std::memory_order_relaxed);
    s.memHits = nMemHits.load(std::memory_order_relaxed);
    s.misses = nMisses.load(std::memory_order_relaxed);
    s.badEntries = nBad.load(std::memory_order_relaxed);
    s.stores = nStores.load(std::memory_order_relaxed);
    s.storeFailures = nStoreFailures.load(std::memory_order_relaxed);
    return s;
}

std::vector<CacheEntryInfo>
ResultCache::scan() const
{
    std::vector<CacheEntryInfo> entries;
    std::error_code ec;
    fs::recursive_directory_iterator it(rootDir, ec), end;
    if (ec)
        return entries;
    for (; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || ec)
            continue;
        std::string path = it->path().string();
        std::string name = it->path().filename().string();
        if (name.size() < sizeof(kEntrySuffix) ||
            name.compare(name.size() - 4, 4, kEntrySuffix) != 0)
            continue;
        CacheEntryInfo info;
        info.path = path;
        info.bytes = it->file_size(ec);
        if (ec)
            continue;
        auto mtime = fs::last_write_time(path, ec);
        if (ec)
            continue;
        info.mtime = std::chrono::duration_cast<std::chrono::seconds>(
                         mtime.time_since_epoch())
                         .count();
        info.valid = recordValid(path, version, info.versionMatch);
        entries.push_back(std::move(info));
    }
    return entries;
}

CacheUsage
ResultCache::usage() const
{
    CacheUsage u;
    for (const CacheEntryInfo &e : scan()) {
        ++u.entries;
        u.bytes += e.bytes;
        if (!e.valid)
            ++u.invalidEntries;
        else if (!e.versionMatch)
            ++u.otherVersionEntries;
    }
    return u;
}

CacheGcResult
ResultCache::gc(std::uint64_t maxAgeSeconds, std::uint64_t maxBytes,
                std::int64_t now)
{
    std::vector<CacheEntryInfo> entries = scan();
    CacheGcResult r;
    r.scanned = entries.size();

    std::error_code ec;
    std::vector<CacheEntryInfo> kept;
    for (CacheEntryInfo &e : entries) {
        bool remove = false;
        std::uint64_t *bucket = nullptr;
        if (!e.valid) {
            remove = true;
            bucket = &r.removedInvalid;
        } else if (maxAgeSeconds != 0 && e.mtime <= now &&
                   static_cast<std::uint64_t>(now) -
                           static_cast<std::uint64_t>(e.mtime) >
                       maxAgeSeconds) {
            // Strictly-older-than: an entry exactly at or newer than
            // the threshold is never deleted by the age rule. Entries
            // with future mtimes (clock skew between shard hosts
            // sharing one cache dir) have no age at all; the unsigned
            // subtraction is guarded so a huge maxAgeSeconds cannot
            // wrap into a signed comparison that deletes everything.
            remove = true;
            bucket = &r.removedAge;
        }
        if (remove) {
            if (fs::remove(e.path, ec) && !ec) {
                ++*bucket;
                r.bytesFreed += e.bytes;
            }
        } else {
            kept.push_back(std::move(e));
        }
    }

    std::uint64_t totalBytes = 0;
    for (const CacheEntryInfo &e : kept)
        totalBytes += e.bytes;

    if (maxBytes != 0 && totalBytes > maxBytes) {
        std::sort(kept.begin(), kept.end(),
                  [](const CacheEntryInfo &a, const CacheEntryInfo &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path; // deterministic tiebreak
                  });
        for (const CacheEntryInfo &e : kept) {
            if (totalBytes <= maxBytes)
                break;
            if (fs::remove(e.path, ec) && !ec) {
                ++r.removedSize;
                r.bytesFreed += e.bytes;
                totalBytes -= e.bytes;
            }
        }
    }
    r.bytesRemaining = totalBytes;
    return r;
}

std::shared_ptr<ResultCache>
activeResultCache()
{
    std::lock_guard<std::mutex> lock(activeCacheMutex);
    return activeCache;
}

void
setActiveResultCache(std::shared_ptr<ResultCache> cache)
{
    std::lock_guard<std::mutex> lock(activeCacheMutex);
    activeCache = std::move(cache);
}

} // namespace wavedyn
