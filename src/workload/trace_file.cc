#include "workload/trace_file.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/log.hh"

namespace lacc {

TraceWorkload::TraceWorkload(std::string name,
                             std::vector<std::vector<MemOp>> streams,
                             std::uint32_t num_locks)
    : name_(std::move(name)), streams_(std::move(streams)),
      pos_(streams_.size(), 0), numLocks_(num_locks)
{
    if (streams_.empty())
        fatal("trace workload '%s' has no cores", name_.c_str());
}

MemOp
TraceWorkload::next(CoreId core)
{
    auto &p = pos_[core];
    const auto &s = streams_[core];
    if (p >= s.size())
        return MemOp::done();
    return s[p++];
}

std::size_t
TraceWorkload::remaining(CoreId core) const
{
    return streams_[core].size() - pos_[core];
}

namespace {

/**
 * Strict decimal parse of a full token: every character must be a
 * digit and the value must fit. Rejects the partial parses
 * std::stoul would accept (e.g. "2x" -> 2, "-1" -> huge).
 */
bool
parseDecimal(const std::string &tok, std::uint32_t &out)
{
    if (tok.empty() || tok.size() > 10)
        return false;
    std::uint64_t v = 0;
    for (const char ch : tok) {
        if (ch < '0' || ch > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(ch - '0');
    }
    if (v > std::numeric_limits<std::uint32_t>::max())
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Strict hex parse of a full token; an optional 0x prefix is fine. */
bool
parseHex(const std::string &tok, Addr &out)
{
    std::size_t i = 0;
    if (tok.size() > 2 && tok[0] == '0' &&
        (tok[1] == 'x' || tok[1] == 'X'))
        i = 2;
    if (i >= tok.size() || tok.size() - i > 16)
        return false;
    Addr v = 0;
    for (; i < tok.size(); ++i) {
        const char ch = tok[i];
        std::uint32_t nibble = 0;
        if (ch >= '0' && ch <= '9')
            nibble = static_cast<std::uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            nibble = static_cast<std::uint32_t>(ch - 'a') + 10;
        else if (ch >= 'A' && ch <= 'F')
            nibble = static_cast<std::uint32_t>(ch - 'A') + 10;
        else
            return false;
        v = (v << 4) | nibble;
    }
    out = v;
    return true;
}

/**
 * fatal() if the line stream still holds a non-comment token; a
 * token starting with '#' comments out the rest of the line.
 */
void
rejectTrailing(std::istringstream &ls, std::size_t line_no)
{
    std::string extra;
    if ((ls >> extra) && extra[0] != '#')
        fatal("trailing garbage '%s' at line %zu", extra.c_str(),
              line_no);
}

} // namespace

TraceWorkload
TraceWorkload::parse(std::istream &in, std::string name)
{
    std::string line;
    std::uint32_t num_cores = 0, num_locks = 0;
    std::vector<std::vector<MemOp>> streams;
    std::size_t line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string first;
        ls >> first;
        if (first == "trace") {
            if (!streams.empty())
                fatal("duplicate 'trace' header at line %zu", line_no);
            std::string cores_tok, locks_tok;
            if (!(ls >> cores_tok >> locks_tok) ||
                !parseDecimal(cores_tok, num_cores) ||
                !parseDecimal(locks_tok, num_locks) || num_cores == 0)
                fatal("trace header malformed at line %zu (want"
                      " 'trace <numCores> <numLocks>')", line_no);
            if (num_cores > kInvalidCore)
                fatal("trace header asks for %u cores at line %zu (at"
                      " most %u: CoreId is 16-bit)", num_cores, line_no,
                      static_cast<unsigned>(kInvalidCore));
            rejectTrailing(ls, line_no);
            streams.assign(num_cores, {});
            continue;
        }
        if (streams.empty())
            fatal("trace body before 'trace' header (line %zu)", line_no);

        std::uint32_t core = 0;
        if (!parseDecimal(first, core))
            fatal("bad core id '%s' at line %zu (must be a decimal"
                  " integer)", first.c_str(), line_no);
        if (core >= num_cores)
            fatal("core id %u out of range at line %zu (trace has %u"
                  " cores)", core, line_no, num_cores);

        std::string op;
        if (!(ls >> op))
            fatal("missing op at line %zu", line_no);

        auto &stream = streams[core];
        if (op == "r" || op == "w" || op == "f") {
            std::string hex;
            if (!(ls >> hex))
                fatal("missing address at line %zu", line_no);
            Addr a = 0;
            if (!parseHex(hex, a))
                fatal("bad address '%s' at line %zu (must be a hex"
                      " address of at most 16 digits)", hex.c_str(),
                      line_no);
            if (op == "r")
                stream.push_back(MemOp::read(a));
            else if (op == "w")
                stream.push_back(MemOp::write(a));
            else
                stream.push_back(MemOp::ifetch(a));
        } else if (op == "c") {
            std::string cnt;
            std::uint32_t n = 0;
            if (!(ls >> cnt))
                fatal("missing cycle count at line %zu", line_no);
            if (!parseDecimal(cnt, n))
                fatal("bad cycle count '%s' at line %zu", cnt.c_str(),
                      line_no);
            stream.push_back(MemOp::compute(n));
        } else if (op == "b") {
            stream.push_back(MemOp::barrier());
        } else if (op == "a" || op == "l") {
            std::string id_tok;
            std::uint32_t id = 0;
            if (!(ls >> id_tok))
                fatal("missing lock id at line %zu", line_no);
            if (!parseDecimal(id_tok, id))
                fatal("bad lock id '%s' at line %zu", id_tok.c_str(),
                      line_no);
            if (id >= num_locks)
                fatal("lock id %u out of range at line %zu (trace has"
                      " %u locks)", id, line_no, num_locks);
            stream.push_back(op == "a" ? MemOp::lockAcquire(id)
                                       : MemOp::lockRelease(id));
        } else {
            fatal("unknown op '%s' at line %zu (know r/w/f/c/b/a/l)",
                  op.c_str(), line_no);
        }
        rejectTrailing(ls, line_no);
    }
    if (streams.empty())
        fatal("trace '%s' missing 'trace' header", name.c_str());
    return TraceWorkload(std::move(name), std::move(streams), num_locks);
}

TraceWorkload
TraceWorkload::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    return parse(in, path);
}

void
TraceWorkload::save(std::ostream &out) const
{
    out << "# lacc trace\n";
    out << "trace " << streams_.size() << " " << numLocks_ << "\n";
    char buf[32];
    for (std::size_t c = 0; c < streams_.size(); ++c) {
        for (const auto &op : streams_[c]) {
            switch (op.kind) {
              case MemOp::Kind::Read:
                std::snprintf(buf, sizeof buf, "%llx",
                              static_cast<unsigned long long>(op.addr));
                out << c << " r " << buf << "\n";
                break;
              case MemOp::Kind::Write:
                std::snprintf(buf, sizeof buf, "%llx",
                              static_cast<unsigned long long>(op.addr));
                out << c << " w " << buf << "\n";
                break;
              case MemOp::Kind::IFetch:
                std::snprintf(buf, sizeof buf, "%llx",
                              static_cast<unsigned long long>(op.addr));
                out << c << " f " << buf << "\n";
                break;
              case MemOp::Kind::Compute:
                out << c << " c " << op.count << "\n";
                break;
              case MemOp::Kind::Barrier:
                out << c << " b\n";
                break;
              case MemOp::Kind::LockAcquire:
                out << c << " a " << op.lockId << "\n";
                break;
              case MemOp::Kind::LockRelease:
                out << c << " l " << op.lockId << "\n";
                break;
              case MemOp::Kind::Done:
                break;
            }
        }
    }
}

} // namespace lacc
