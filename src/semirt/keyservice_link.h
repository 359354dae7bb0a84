#ifndef SESEMI_SEMIRT_KEYSERVICE_LINK_H_
#define SESEMI_SEMIRT_KEYSERVICE_LINK_H_

#include <mutex>
#include <optional>

#include "common/result.h"
#include "keyservice/keyservice.h"
#include "ratls/session.h"
#include "sgx/enclave.h"

namespace sesemi::semirt {

/// SeMIRT's connection to KeyService: performs the mutual remote attestation
/// once, then keeps the secure channel alive so later key fetches skip the
/// attestation round trip (§IV-B: "The enclave maintains a secure channel
/// with KeyService after the first remote attestation").
class KeyServiceLink {
 public:
  /// `server` is the in-process transport to KeyService (a network stub in
  /// this build); `expected_measurement` is E_K compiled into the SeMIRT
  /// enclave code (Appendix A).
  KeyServiceLink(keyservice::KeyServiceServer* server,
                 sgx::Measurement expected_measurement)
      : server_(server), expected_(expected_measurement) {}
  /// Closes the session on the server (ResetSession), so KeyService keeps
  /// no session for a link that is gone: a retired instance, or the link a
  /// Native-mode relaunch replaces. The server must outlive the link.
  ~KeyServiceLink() { ResetSession(); }

  /// Fetch (K_M, K_R) for (user, model) with `enclave` as the attesting
  /// identity. Establishes the mutually attested session on first use.
  Result<std::pair<Bytes, Bytes>> FetchKeys(sgx::Enclave* enclave,
                                            const std::string& user_id,
                                            const std::string& model_id);

  /// Drop the cached session and close it on the server. Used on KeyService
  /// restart / network reset, and by the destructor.
  void ResetSession();

 private:
  Status EnsureSession(sgx::Enclave* enclave);

  keyservice::KeyServiceServer* server_;
  sgx::Measurement expected_;
  std::mutex mutex_;
  std::optional<ratls::SecureSession> session_;
  uint64_t session_id_ = 0;
};

}  // namespace sesemi::semirt

#endif  // SESEMI_SEMIRT_KEYSERVICE_LINK_H_
