#include "util/fsatomic.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <system_error>

namespace tea {

namespace {

/**
 * Best-effort fsync of `path`'s parent directory so the rename that
 * published `path` survives power failure. Some filesystems refuse
 * directory fsync; that only weakens durability, never atomicity.
 */
void
fsyncParentDir(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? std::string(".")
                      : slash == 0               ? std::string("/")
                                                 : path.substr(0, slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

bool
atomicWriteFile(const std::string &path, const std::string &contents,
                bool durable)
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                  static_cast<long>(::getpid()));
    std::string tmp = path + suffix;
    int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    size_t off = 0;
    while (off < contents.size()) {
        ssize_t n = ::write(fd, contents.data() + off,
                            contents.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<size_t>(n);
    }
    // The bytes must reach stable storage *before* the rename
    // publishes them, or power failure can leave a complete-looking
    // but empty/torn file at `path`.
    if (durable && ::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    if (durable)
        fsyncParentDir(path);
    return true;
}

bool
createExclusive(const std::string &path, const std::string &contents)
{
    int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    size_t off = 0;
    while (off < contents.size()) {
        ssize_t n = ::write(fd, contents.data() + off,
                            contents.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(path.c_str());
            return false;
        }
        off += static_cast<size_t>(n);
    }
    ::close(fd);
    return true;
}

std::optional<std::string>
readFileToString(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad())
        return std::nullopt;
    return data;
}

bool
renameFile(const std::string &from, const std::string &to)
{
    return std::rename(from.c_str(), to.c_str()) == 0;
}

bool
removeFile(const std::string &path)
{
    return ::unlink(path.c_str()) == 0 || errno == ENOENT;
}

int64_t
wallClockMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace tea
