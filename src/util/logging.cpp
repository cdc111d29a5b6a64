#include "util/logging.h"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace fastgl {
namespace util {

namespace {

std::mutex g_mutex;

/** Emit one record tagged @p level ("INFO ", "WARN ", "ERROR"). */
void
emit(std::ostream &out, const char *level, const std::string &message)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    out << "[fastgl:" << level << "] " << message << '\n';
}

} // namespace

void
inform(const std::string &message)
{
    emit(std::cout, "INFO ", message);
}

void
warn(const std::string &message)
{
    emit(std::cerr, "WARN ", message);
}

void
fatal(const std::string &message)
{
    emit(std::cerr, "ERROR", "fatal: " + message);
    std::exit(1);
}

void
panic(const std::string &message)
{
    emit(std::cerr, "ERROR", "panic: " + message);
    std::abort();
}

} // namespace util
} // namespace fastgl
