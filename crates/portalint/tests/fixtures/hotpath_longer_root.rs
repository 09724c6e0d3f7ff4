//! Attribution fixture: a second hot-path entry that reaches the
//! `hotpath_xml.rs` sink through one more call than `hotpath_soap.rs`'s
//! entry does.

// portalint: hot-path-entry
pub fn encode_batch(out: &mut String) {
    encode_item(out);
}

fn encode_item(out: &mut String) {
    render_header(out);
}
