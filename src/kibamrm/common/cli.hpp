// Minimal command-line option parsing for the bench and example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms.  Unknown options
// raise InvalidArgument so typos in bench invocations fail loudly instead of
// silently running the default configuration.  run_main() is the shared
// main() of the drivers: it turns those errors into exit codes instead of
// an uncaught-exception abort, and answers --help.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kibamrm/common/error.hpp"

namespace kibamrm::common {

/// Thrown by CliArgs::validate() when the command line asks for --help;
/// what() is the usage text listing the declared options.
class HelpRequested : public Error {
 public:
  using Error::Error;
};

/// Parsed command line.  Construct once from argc/argv, then query options.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// String value of `--name value` / `--name=value`, or `fallback`.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric accessors; throw InvalidArgument on malformed numbers.
  double get_double(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;

  /// get_int additionally requiring any *provided* value to be >= 1 --
  /// replication counts, subspace dimensions.  Rejects 0, negatives,
  /// fractions and garbage with InvalidArgument.  The fallback itself is
  /// exempt, so callers may default to a sentinel.
  int get_positive_int(const std::string& name, int fallback) const;

  /// get_int additionally requiring any *provided* value to be >= 0 --
  /// options whose 0 is a documented sentinel, like `--threads 0` =
  /// auto-detect (get_positive_int would reject the explicit 0 the help
  /// text advertises).  Rejects negatives, fractions and garbage.
  int get_nonnegative_int(const std::string& name, int fallback) const;

  /// Parses a comma-separated list of doubles, e.g. `--delta 100,50,25`.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  /// Value of `--name` restricted to an allowed set (e.g. the registered
  /// transient engines); throws InvalidArgument listing the choices when
  /// the given value is not among them, or when `--name` appears without a
  /// value.  `fallback` need not be validated against `allowed` (callers
  /// may default to a dynamic first entry).
  std::string get_choice(const std::string& name, const std::string& fallback,
                         const std::vector<std::string>& allowed) const;

  /// Value of `--name` required to be an *existing directory* when
  /// provided -- spill/output locations, where a typo'd path would
  /// otherwise surface minutes into a solve as an opaque open() failure.
  /// The fallback (typically "" = use $TMPDIR) is exempt.  A `--name`
  /// without a value throws, like get_choice.
  std::string get_directory(const std::string& name,
                            const std::string& fallback) const;

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Registers `name` as known; returns *this for chaining.  After all
  /// declare() calls, validate() throws HelpRequested when --help was
  /// given, and InvalidArgument on any unknown option.
  CliArgs& declare(const std::string& name);
  void validate() const;

 private:
  /// Shared body of the bounded-int accessors: fallback passthrough when
  /// absent, then get_int with the lower bound named by `adjective` in
  /// the error message.
  int get_int_at_least(const std::string& name, int fallback, int minimum,
                       const char* adjective) const;

  std::string program_;
  std::map<std::string, std::optional<std::string>> options_;
  std::vector<std::string> positional_;
  std::vector<std::string> declared_;
};

/// The main() of every bench and example driver: parses argv, runs `body`
/// and returns its exit status.  --help prints the declared options and
/// returns 0; InvalidArgument (a bad flag or value) prints one line to
/// stderr and returns 2; any other kibamrm::Error or std::exception
/// prints one line and returns 1.
int run_main(int argc, const char* const* argv,
             const std::function<int(CliArgs&)>& body);

}  // namespace kibamrm::common
