//! SOAP 1.1-style messaging for the portal services.
//!
//! Section 2 of the paper fixes the trio of Web-Service concepts: WSDL for
//! interfaces, SOAP for invocation, UDDI for discovery. This crate is the
//! SOAP leg: envelope framing, RPC-style value encoding, faults, and the
//! client/server machinery that every portal service (job submission, SRB
//! data management, context management, batch script generation,
//! authentication) is built on.
//!
//! Two design points come straight from the paper:
//!
//! * **Header entries carry security assertions.** §4: "SAML assertions are
//!   added to SOAP messages." [`envelope::Envelope`] keeps an ordered list
//!   of [`header::HeaderEntry`] text spans that the auth layer writes,
//!   forwards and reads.
//! * **A common set of implementation error messages.** §3: "the standard
//!   set of portal services that we are building must define and relay a
//!   common set of error messages" distinct from SOAP-level errors.
//!   [`fault::PortalError`] is that set; services return it inside the
//!   `<detail>` of a SOAP fault, and clients recover it losslessly.

pub mod base64;
pub mod cache;
pub mod client;
pub mod deadline;
pub mod envelope;
pub mod fault;
pub mod header;
pub mod server;
pub mod value;

pub use cache::{fnv1a, ReadCache, ReadCacheConfig};
pub use client::{ReplyVerifier, SoapClient, SoapError};
pub use envelope::Envelope;
pub use fault::{Fault, FaultCode, PortalError, PortalErrorKind};
pub use header::HeaderEntry;
pub use server::{
    CallContext, Guard, MethodDesc, ResponseHeaderSupplier, SoapServer, SoapService,
    GENERATION_HEADER,
};
pub use value::{SoapType, SoapValue};

/// Result type for service method implementations: success value or fault.
pub type SoapResult<T> = std::result::Result<T, Fault>;

/// The SOAP 1.1 envelope namespace.
pub const SOAP_ENV_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// XML Schema instance namespace (for `xsi:type`).
pub const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";
/// XML Schema datatype namespace (for `xsd:*` type names).
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
