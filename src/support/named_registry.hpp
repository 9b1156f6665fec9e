// NamedRegistry — the name -> spec map behind every registry (algorithms,
// scenarios, stream scenarios, workload mixes, bound methods).
//
// A Spec is a struct with a `name` and, optionally, a `make` factory. The
// registry checks each registration (non-empty, unique name; a factory
// when the Spec has one), iterates sorted by name, and answers a lookup
// miss with the known names. The messages name the entry with the nouns
// given at construction:
//
//   AlgorithmRegistry: duplicate algorithm 'pd'
//   unknown algorithm 'x'; known algorithms: alwaysopen, fotakis, ...
#pragma once

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace omflp {

/// "a, b, c" — for unknown-name error messages listing the known names.
inline std::string join_names(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << names[i];
  }
  return os.str();
}

template <class Spec>
class NamedRegistry {
 public:
  /// `owner` prefixes registration errors ("AlgorithmRegistry"); `noun`
  /// and `plural` name an entry ("algorithm", "algorithms").
  NamedRegistry(std::string owner, std::string noun, std::string plural)
      : owner_(std::move(owner)),
        noun_(std::move(noun)),
        plural_(std::move(plural)) {}

  /// Registers `spec`; throws std::invalid_argument on an empty or
  /// duplicate name or a missing factory.
  void add(Spec spec) {
    if (spec.name.empty())
      throw std::invalid_argument(owner_ + ": empty " + noun_ + " name");
    if constexpr (requires { static_cast<bool>(spec.make); })
      if (!spec.make)
        throw std::invalid_argument(owner_ + ": " + noun_ + " '" +
                                    spec.name + "' has no factory");
    // try_emplace leaves `spec` untouched when the name is taken.
    if (!specs_.try_emplace(spec.name, std::move(spec)).second)
      throw std::invalid_argument(owner_ + ": duplicate " + noun_ + " '" +
                                  spec.name + "'");
  }

  bool contains(const std::string& name) const {
    return specs_.count(name) != 0;
  }

  /// Throws std::invalid_argument listing the known names when absent.
  const Spec& spec(const std::string& name) const {
    const auto it = specs_.find(name);
    if (it == specs_.end())
      throw std::invalid_argument("unknown " + noun_ + " '" + name +
                                  "'; known " + plural_ + ": " +
                                  join_names(names()));
    return it->second;
  }

  /// All registered names, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const auto& entry : specs_) out.push_back(entry.first);
    return out;
  }

  std::size_t size() const noexcept { return specs_.size(); }

 private:
  std::string owner_;
  std::string noun_;
  std::string plural_;
  std::map<std::string, Spec> specs_;
};

}  // namespace omflp
