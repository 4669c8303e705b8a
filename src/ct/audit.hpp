// End-to-end secret-independence audit of the Saber KEM flows.
//
// The audit instantiates the word-generic keygen/encaps/decaps flow kernels
// (saber/flows.hpp) over ct::Tainted words: the secret seed, the
// implicit-rejection secret z and the encapsulation coins are tainted at the
// boundary, and the run asserts that
//
//   * no trapped operation fired (zero CtViolations): no branch, division,
//     modulo, variable shift or table index ever depended on secret data;
//   * the only declassifications are the reviewed allowlist below;
//   * taint actually propagated into every secret-derived output (a
//     vacuously-clean analysis that lost the taint proves nothing);
//   * the declassified outputs are bit-identical to the production
//     SaberKemScheme over the same backend and seeds — the audited code path
//     IS the production code path.
//
// One audit per registered software multiplier (mult::multiplier_names()):
// the polynomial products run through the stage templates the production
// class runs over i64 (lift, accumulate, interpolate or inverse-transform,
// reduce), instantiated over tainted words. A backend the audit cannot
// compose throws "unknown audit backend".
#pragma once

#include <string>
#include <vector>

#include "ct/tainted.hpp"
#include "saber/params.hpp"

namespace saber::ct {

struct AuditResult {
  std::string backend;
  std::string param_set;
  std::vector<CtViolation> violations;
  std::vector<DeclassifyEvent> declassifications;
  bool outputs_tainted = false;  ///< taint reached pk, ct and both shared keys
  bool conforms = false;         ///< outputs bit-identical to production

  bool ok() const { return violations.empty() && outputs_tainted && conforms; }
};

/// The reviewed declassification allowlist; every site is justified in
/// docs/static_analysis.md. The audit fails if any other site appears.
std::vector<std::string_view> declassify_allowlist();

/// Run keygen -> encaps -> decaps (plus a tampered-ciphertext decaps
/// exercising the implicit-rejection path) with tainted secrets over one
/// backend, and check the audit invariants against the production scheme.
/// Both decaps runs share one split secret key and one unpacked s, as a
/// production kem::PreparedSecretKey does.
AuditResult audit_kem_roundtrip(std::string_view backend,
                                const kem::SaberParams& params);

/// audit_kem_roundtrip over every backend in mult::multiplier_names().
std::vector<AuditResult> audit_backends(const kem::SaberParams& params);

/// Deliberately variable-time kernels (early-exit compare, secret table
/// index, secret division/modulo/shift) run on tainted data: proves the
/// analyzer traps every violation class. Returns the recorded violations;
/// callers assert each ViolationKind appears.
std::vector<CtViolation> run_canary_kernels();

}  // namespace saber::ct
