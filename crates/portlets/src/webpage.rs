//! `WebPagePortlet`: proxy a remote page into the portal.
//!
//! "In the case of remote web content, the portlet is a proxy that loads
//! the remote URL's contents and converts it into an in-memory Java
//! object." Here the in-memory copy is a cached string, refreshed on
//! demand; the derived [`crate::WebFormPortlet`] builds on this fetch
//! machinery.

use std::sync::Arc;

use parking_lot::RwLock;
use portalws_wire::{Request, Status, Transport};

use crate::portlet::{Portlet, PortletContext};

/// Remote-content portlet.
pub struct WebPagePortlet {
    name: String,
    title: String,
    /// Default path fetched on the remote server.
    pub(crate) home_path: String,
    pub(crate) transport: Arc<dyn Transport>,
    /// The in-memory copy kept "for reformatting".
    cache: RwLock<Option<String>>,
}

impl WebPagePortlet {
    /// Proxy `home_path` on the remote server reachable via `transport`.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        home_path: impl Into<String>,
        transport: Arc<dyn Transport>,
    ) -> WebPagePortlet {
        WebPagePortlet {
            name: name.into(),
            title: title.into(),
            home_path: home_path.into(),
            transport,
            cache: RwLock::new(None),
        }
    }

    /// Fetch a path from the remote server, updating the in-memory copy.
    pub fn fetch(&self, path: &str) -> String {
        let outcome = self.transport.round_trip(Request::get(path));
        let content = match outcome {
            Ok(resp) if resp.status == Status::Ok => resp.body_str(),
            Ok(resp) => format!(
                "<em>remote content unavailable: {} {}</em>",
                resp.status.code(),
                resp.status.reason()
            ),
            Err(e) => format!("<em>remote content unavailable: {e}</em>"),
        };
        *self.cache.write() = Some(content.clone());
        content
    }

    /// The last fetched copy, if any.
    pub fn cached(&self) -> Option<String> {
        self.cache.read().clone()
    }
}

impl Portlet for WebPagePortlet {
    fn name(&self) -> &str {
        &self.name
    }

    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, _ctx: &PortletContext) -> String {
        self.fetch(&self.home_path.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_wire::{Handler, InMemoryTransport, Response};

    fn remote() -> Arc<dyn Transport> {
        let handler: Arc<dyn Handler> = Arc::new(|req: &Request| {
            if req.path_only() == "/status" {
                Response::html("<p>all systems nominal</p>")
            } else {
                Response::error(Status::NotFound, "nope")
            }
        });
        Arc::new(InMemoryTransport::new(handler))
    }

    #[test]
    fn fetches_and_caches_remote_content() {
        let p = WebPagePortlet::new("status", "System Status", "/status", remote());
        assert!(p.cached().is_none());
        let ctx = PortletContext::new("u", "/portal");
        let html = p.render(&ctx);
        assert_eq!(html, "<p>all systems nominal</p>");
        assert_eq!(p.cached().as_deref(), Some("<p>all systems nominal</p>"));
    }

    #[test]
    fn remote_errors_render_inline_notice() {
        let p = WebPagePortlet::new("x", "X", "/ghost", remote());
        let html = p.render(&PortletContext::new("u", "/portal"));
        assert!(html.contains("remote content unavailable"), "{html}");
        assert!(html.contains("404"));
    }

    #[test]
    fn unreachable_server_renders_notice_not_panic() {
        let transport = Arc::new(portalws_wire::PooledTransport::new("127.0.0.1:1"));
        let p = WebPagePortlet::new("x", "X", "/", transport);
        let html = p.render(&PortletContext::new("u", "/portal"));
        assert!(html.contains("remote content unavailable"));
    }
}
