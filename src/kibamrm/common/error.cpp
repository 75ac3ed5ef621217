#include "kibamrm/common/error.hpp"

#include <sstream>
#include <string_view>

namespace kibamrm::detail {

namespace {

/// `file` from its "kibamrm/" source directory on (the basename when the
/// path has none), so messages never carry the build machine's checkout
/// path.
std::string_view project_relative(std::string_view file) {
  const std::size_t at = file.rfind("/kibamrm/");
  if (at != std::string_view::npos) return file.substr(at + 1);
  const std::size_t slash = file.rfind('/');
  return slash == std::string_view::npos ? file : file.substr(slash + 1);
}

}  // namespace

void throw_requirement_failure(const char* expr, const std::string& message,
                               std::source_location where) {
  std::ostringstream out;
  out << message << " [requirement `" << expr << "` failed at "
      << project_relative(where.file_name()) << ":" << where.line() << "]";
  throw InvalidArgument(out.str());
}

}  // namespace kibamrm::detail
