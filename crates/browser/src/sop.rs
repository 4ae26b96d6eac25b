//! Same-Origin Policy checks and the cross-origin image dimension leak.
//!
//! The paper's C&C downstream channel (§VI-C) exists precisely because of the
//! asymmetry modelled here: a script may *load* images from any origin, and
//! although it cannot read the pixels of a cross-origin image, the intrinsic
//! width and height are exposed to it (the page needs them for layout). Each
//! dimension is clamped to 65 535 by the browsers the paper tested, giving the
//! attacker 2 × 16 bits = 4 bytes per image.

use mp_httpsim::url::{Origin, Url};

/// Maximum image dimension browsers report; larger values are clamped.
pub const MAX_IMAGE_DIMENSION: u32 = 65_535;

/// Returns `true` if a script running in `script_origin` may read the DOM of
/// a document at `document_origin` (same-origin only).
pub fn can_read_dom(script_origin: &Origin, document_origin: &Origin) -> bool {
    script_origin == document_origin
}

/// Returns `true` if a script running in `script_origin` may issue a request
/// to `target` at all. Under SOP alone the request is always allowed (the
/// *response* may be opaque); CSP is what restricts the request itself.
pub fn can_request(_script_origin: &Origin, _target: &Url) -> bool {
    true
}

/// Returns `true` if the script may read the full response body of a fetch to
/// `target` (same-origin, or not restricted because the resource ended up
/// camouflaged under the document's own origin — the parasite case).
pub fn can_read_response(script_origin: &Origin, target: &Url) -> bool {
    *script_origin == target.origin()
}

/// What a script can see of an image element, depending on where the image
/// came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageView {
    /// Reported width in CSS pixels (clamped).
    pub width: u32,
    /// Reported height in CSS pixels (clamped).
    pub height: u32,
    /// Whether pixel data is readable (same-origin or CORS-approved only).
    pub pixels_readable: bool,
}

/// Computes the script-visible view of an image with intrinsic size
/// `(width, height)` loaded by a document of `document_origin`.
pub fn image_view(document_origin: &Origin, image_url: &Url, width: u32, height: u32) -> ImageView {
    let same_origin = *document_origin == image_url.origin();
    ImageView {
        width: width.min(MAX_IMAGE_DIMENSION),
        height: height.min(MAX_IMAGE_DIMENSION),
        pixels_readable: same_origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_httpsim::url::Scheme;

    fn origin(s: &str) -> Origin {
        Url::parse(s).unwrap().origin()
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn dom_access_requires_same_origin() {
        assert!(can_read_dom(&origin("https://bank.example/a"), &origin("https://bank.example/b")));
        assert!(!can_read_dom(&origin("https://bank.example/"), &origin("https://mail.example/")));
        assert!(!can_read_dom(&origin("http://bank.example/"), &origin("https://bank.example/")));
    }

    #[test]
    fn response_reading_is_origin_bound() {
        let parasite_origin = origin("http://top1.com/");
        assert!(can_read_response(&parasite_origin, &url("http://top1.com/api/data")));
        assert!(!can_read_response(&parasite_origin, &url("http://other.com/api/data")));
        // Requests themselves are not blocked by SOP.
        assert!(can_request(&parasite_origin, &url("http://attacker.example/c2")));
    }

    #[test]
    fn cross_origin_images_expose_dimensions_but_not_pixels() {
        let doc = origin("http://top1.com/");
        let view = image_view(&doc, &url("http://attacker.example/cc/img0.svg"), 31_337, 42);
        assert_eq!(view.width, 31_337);
        assert_eq!(view.height, 42);
        assert!(!view.pixels_readable);

        let own = image_view(&doc, &url("http://top1.com/logo.png"), 100, 50);
        assert!(own.pixels_readable);
    }

    #[test]
    fn dimensions_clamp_at_65535() {
        let doc = origin("http://top1.com/");
        let view = image_view(&doc, &url("http://attacker.example/huge.svg"), 1_000_000, 70_000);
        assert_eq!(view.width, MAX_IMAGE_DIMENSION);
        assert_eq!(view.height, MAX_IMAGE_DIMENSION);
    }

    #[test]
    fn origin_comparison_includes_scheme() {
        let http = Origin::new(Scheme::Http, "bank.example");
        let https = Origin::new(Scheme::Https, "bank.example");
        assert!(!can_read_dom(&http, &https));
    }
}
