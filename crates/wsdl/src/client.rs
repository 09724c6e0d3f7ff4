//! Dynamic client stubs generated from WSDL documents.
//!
//! Figure 1's flow is: the UI server finds a service in the UDDI, fetches
//! its WSDL, and *binds* — creating a client proxy from the downloaded
//! interface description. [`DynamicClient`] is that proxy: it knows the
//! operations and their signatures from the WSDL alone, type-checks every
//! call before the envelope is built, and names parameters the way the
//! interface declares them.

use std::sync::Arc;

use portalws_soap::{Envelope, SoapClient, SoapType, SoapValue};
use portalws_wire::Transport;

use crate::model::WsdlDefinition;
use crate::{Result, WsdlError};

/// A client stub driven entirely by a WSDL definition.
pub struct DynamicClient {
    wsdl: WsdlDefinition,
    inner: SoapClient,
}

impl DynamicClient {
    /// Bind a stub for `wsdl` over `transport`.
    pub fn bind(wsdl: WsdlDefinition, transport: Arc<dyn Transport>) -> DynamicClient {
        let inner = SoapClient::new(transport, wsdl.service.clone());
        DynamicClient { wsdl, inner }
    }

    /// The definition this stub was generated from.
    pub fn wsdl(&self) -> &WsdlDefinition {
        &self.wsdl
    }

    /// The underlying SOAP client (to install header suppliers etc.).
    pub fn soap_client(&self) -> &SoapClient {
        &self.inner
    }

    /// Operations available on this stub.
    pub fn operations(&self) -> Vec<&str> {
        self.wsdl
            .operations
            .iter()
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Invoke `operation` with positional arguments. Arguments are checked
    /// against the interface (arity and types) and sent under their
    /// WSDL-declared parameter names.
    pub fn call(&self, operation: &str, args: &[SoapValue]) -> Result<SoapValue> {
        let op = self.wsdl.operation(operation).ok_or_else(|| {
            WsdlError::InterfaceMismatch(format!(
                "service {:?} has no operation {operation:?}",
                self.wsdl.service
            ))
        })?;
        if op.inputs.len() != args.len() {
            return Err(WsdlError::InterfaceMismatch(format!(
                "operation {operation:?} takes {} arguments, got {}",
                op.inputs.len(),
                args.len()
            )));
        }
        for (part, arg) in op.inputs.iter().zip(args) {
            if !type_accepts(part.ty, arg) {
                return Err(WsdlError::InterfaceMismatch(format!(
                    "operation {operation:?}: parameter {:?} expects {}, got {}",
                    part.name,
                    part.ty.wire_name(),
                    arg.soap_type().wire_name()
                )));
            }
        }
        // Each argument is copied once, into the request envelope.
        let env = Envelope::request_named(
            self.inner.service(),
            operation,
            op.inputs.iter().map(|p| p.name.as_str()).zip(args),
        );
        Ok(self.inner.call_envelope(env)?)
    }
}

/// Does a value satisfy a declared part type? `Int` widens to `Double`,
/// and `Null` satisfies anything (xsi:nil).
fn type_accepts(declared: SoapType, value: &SoapValue) -> bool {
    if matches!(value, SoapValue::Null) {
        return true;
    }
    let actual = value.soap_type();
    declared == actual || (declared == SoapType::Double && actual == SoapType::Int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::FakeScriptgen;
    use portalws_soap::SoapServer;
    use portalws_wire::{Handler, InMemoryTransport};

    fn stub() -> DynamicClient {
        let server = SoapServer::new();
        server.mount(Arc::new(FakeScriptgen));
        let handler: Arc<dyn Handler> = Arc::new(server);
        let transport = Arc::new(InMemoryTransport::new(handler));
        // Bind from the *serialized and reparsed* WSDL, exactly as a
        // remote client would.
        let published = WsdlDefinition::from_service(&FakeScriptgen).to_xml();
        let wsdl = WsdlDefinition::from_xml(&published).unwrap();
        DynamicClient::bind(wsdl, transport)
    }

    #[test]
    fn dynamic_call_succeeds() {
        let client = stub();
        let out = client
            .call(
                "generateScript",
                &[
                    SoapValue::str("PBS"),
                    SoapValue::str("job1"),
                    SoapValue::str("/bin/date"),
                    SoapValue::Int(4),
                    SoapValue::Int(30),
                ],
            )
            .unwrap();
        assert!(out.as_str().unwrap().starts_with("#!/bin/sh"));
    }

    #[test]
    fn zero_arg_operation() {
        let client = stub();
        let out = client.call("supportedSchedulers", &[]).unwrap();
        assert_eq!(out.as_array().unwrap().len(), 2);
    }

    #[test]
    fn unknown_operation_rejected_client_side() {
        let client = stub();
        let err = client.call("nosuch", &[]).unwrap_err();
        assert!(matches!(err, WsdlError::InterfaceMismatch(_)));
    }

    #[test]
    fn arity_checked_client_side() {
        let client = stub();
        let err = client
            .call("generateScript", &[SoapValue::str("PBS")])
            .unwrap_err();
        assert!(matches!(err, WsdlError::InterfaceMismatch(_)));
    }

    #[test]
    fn type_checked_client_side() {
        let client = stub();
        let err = client
            .call(
                "generateScript",
                &[
                    SoapValue::str("PBS"),
                    SoapValue::str("job1"),
                    SoapValue::str("/bin/date"),
                    SoapValue::str("four"), // cpus must be Int
                    SoapValue::Int(30),
                ],
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cpus"), "{msg}");
    }

    #[test]
    fn int_widens_to_double() {
        assert!(type_accepts(SoapType::Double, &SoapValue::Int(3)));
        assert!(!type_accepts(SoapType::Int, &SoapValue::Double(3.0)));
    }

    #[test]
    fn operations_listed() {
        let client = stub();
        assert_eq!(
            client.operations(),
            vec!["generateScript", "supportedSchedulers"]
        );
    }
}
