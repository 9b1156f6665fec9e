// BoundRegistry — named OPT lower-bound methods.
//
// Maps a stable string name to a bound factory over an Instance, the same
// pattern as the algorithm/scenario registries: the `omflp bound` verb,
// tests and docs all pull from one roster. Every outcome is *certified*:
// a proven lower bound on OPT backed by an exact solver, an exact
// generator certificate, or a dual certificate that passed
// verify_certificate. Uncertified bounds are never produced — methods
// throw instead, so a registry bound can always be trusted or is loudly
// absent.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "instance/instance.hpp"
#include "support/named_registry.hpp"

namespace omflp {

struct BoundOutcome {
  /// Certified lower bound on OPT(instance).
  double lower = 0.0;
  /// True when the bound equals OPT exactly (exact solver / exact
  /// generator certificate), not merely a lower bound.
  bool exact = false;
  /// Method actually used (e.g. "dual-ascent", "exhaustive(...)").
  std::string method;
  /// The verified dual certificate, when the method produces one.
  std::optional<DualCertificate> certificate;
};

struct BoundMethodSpec {
  std::string name;
  std::string description;
  /// Computes a certified bound or throws (BoundUnsupportedError when the
  /// instance's structure is out of scope, std::logic_error when a
  /// produced certificate fails verification).
  std::function<BoundOutcome(const Instance&, const DualAscentOptions&)>
      make;
};

class BoundRegistry : public NamedRegistry<BoundMethodSpec> {
 public:
  BoundRegistry() : NamedRegistry("BoundRegistry", "method", "methods") {}

  BoundOutcome make(const std::string& name, const Instance& instance,
                    const DualAscentOptions& options = {}) const {
    return spec(name).make(instance, options);
  }
};

/// The outcome whose verified dual certificate `omflp bound --save-cert`
/// writes: `outcome` itself when it carries one; for an exact outcome
/// (exact solver or generator certificate, which certify themselves and
/// carry none) the registry's dual-ascent outcome on `instance`, whose
/// certificate passed verify_certificate and whose lower bound is the one
/// the file certifies. Throws std::invalid_argument for an inexact
/// outcome without a certificate (a chunked bound has one per chunk).
BoundOutcome certificate_outcome(const Instance& instance,
                                 const BoundOutcome& outcome);

/// Registry with the standard roster (shared, initialized on first use,
/// safe for concurrent readers):
///   dual-ascent — the native bounder + verify_certificate (always
///                 verified; a checker failure throws);
///   exact-small — exhaustive exact solver within ExactSolverLimits
///                 (throws BoundUnsupportedError beyond them);
///   certificate — the generator's exact OptCertificate (throws
///                 BoundUnsupportedError when absent or inexact);
///   chunked     — max over contiguous-chunk dual-ascent bounds
///                 (bound_instance_chunked; any instance size);
///   auto        — strongest applicable: estimate_opt's exact chain
///                 (exact_opt: certificate, then the single-point DP, then
///                 exact-small), else dual-ascent, else chunked.
const BoundRegistry& default_bound_registry();

}  // namespace omflp
