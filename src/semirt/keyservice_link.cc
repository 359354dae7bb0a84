#include "semirt/keyservice_link.h"

#include "common/faultpoint.h"
#include "obs/trace.h"
#include "ratls/handshake.h"

namespace sesemi::semirt {

Status KeyServiceLink::EnsureSession(sgx::Enclave* enclave) {
  if (session_.has_value()) return Status::OK();
  // Only an actual RA-TLS establishment gets a span: the cached-session
  // early return above is the hot path.
  obs::Span span(obs::spans::kHandshake);
  ratls::RatlsInitiator initiator(enclave->platform()->authority(), enclave);
  SESEMI_ASSIGN_OR_RETURN(ratls::ClientHello hello, initiator.Start());
  uint64_t session_id = 0;
  SESEMI_ASSIGN_OR_RETURN(ratls::ServerHello reply,
                          server_->ConnectEnclave(hello, &session_id));
  SESEMI_ASSIGN_OR_RETURN(ratls::SecureSession session,
                          initiator.Finish(reply, expected_));
  session_ = std::move(session);
  session_id_ = session_id;
  return Status::OK();
}

Result<std::pair<Bytes, Bytes>> KeyServiceLink::FetchKeys(
    sgx::Enclave* enclave, const std::string& user_id, const std::string& model_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  SESEMI_FAULT_POINT(faults::kKeyServiceFetch);
  SESEMI_RETURN_IF_ERROR(EnsureSession(enclave));

  keyservice::Request request;
  request.op = keyservice::OpCode::kKeyProvisioning;
  request.caller_id = user_id;
  request.payload = keyservice::BuildKeyProvisioningPayload(user_id, model_id);

  SESEMI_ASSIGN_OR_RETURN(Bytes sealed, session_->Seal(request.Serialize()));
  auto sealed_response = server_->Handle(session_id_, sealed);
  if (!sealed_response.ok()) {
    // The channel may be gone (server restart); drop it so the next call
    // re-attests rather than failing forever.
    session_.reset();
    return sealed_response.status();
  }
  SESEMI_ASSIGN_OR_RETURN(Bytes response_wire, session_->Open(*sealed_response));
  SESEMI_ASSIGN_OR_RETURN(keyservice::Response response,
                          keyservice::Response::Parse(response_wire));
  if (!response.ok()) {
    return Status(static_cast<StatusCode>(response.code), response.message);
  }
  return keyservice::ParseProvisionedKeys(response.payload);
}

void KeyServiceLink::ResetSession() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_.has_value() && server_ != nullptr) {
    server_->Disconnect(session_id_);
  }
  session_.reset();
}

}  // namespace sesemi::semirt
