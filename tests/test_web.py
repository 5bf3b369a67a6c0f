"""Tests for the web layer: HTTP objects, HTML assembly, static store."""

import pytest

from repro.web.html import Page, escape
from repro.web.http import HttpRequest, HttpResponse
from repro.web.static import StaticContentStore


# ------------------------------------------------------------------- http

def test_request_param_helpers():
    request = HttpRequest("/x", params={"a": "5", "b": "hello", "c": 3})
    assert request.int_param("a") == 5
    assert request.int_param("c") == 3
    assert request.int_param("ghost") is None
    assert request.int_param("ghost", 9) == 9
    assert request.str_param("b") == "hello"
    assert request.str_param("ghost", "d") == "d"


def test_response_byte_count_is_utf8():
    response = HttpResponse(body="héllo")
    assert response.body_bytes == len("héllo".encode("utf-8"))


def test_response_ok_ranges():
    assert HttpResponse(status=200).ok()
    assert HttpResponse(status=299).ok()
    assert not HttpResponse(status=404).ok()
    assert not HttpResponse(status=500).ok()


# ------------------------------------------------------------------- html

def test_escape_neutralizes_markup():
    assert escape('<b a="1">&') == "&lt;b a=&quot;1&quot;&gt;&amp;"
    assert escape(None) == ""
    assert escape(5) == "5"


def test_page_renders_structure():
    page = Page("My Title", site="My Site")
    page.heading("Section")
    page.paragraph("Some <raw> text")
    page.table(["a", "b"], [(1, 2), (3, 4)], caption="cap")
    page.link("/next", "Next")
    page.form("/submit", ["name"])
    html = page.render()
    assert html.startswith("<!DOCTYPE")
    assert "My Site: My Title" in html
    assert "&lt;raw&gt;" in html
    assert "<td>3</td>" in html
    assert 'action="/submit"' in html
    assert html.rstrip().endswith("</html>")


def test_page_tracks_embedded_images():
    page = Page("T")
    page.add_image("/images/x.gif")
    page.nav_buttons(["home", "browse"])
    assert page.images == ["/images/logo.gif", "/images/x.gif",
                           "/images/home.gif", "/images/browse.gif"]


# ----------------------------------------------------------------- static

def test_store_register_and_serve():
    store = StaticContentStore()
    store.register("/images/a.gif", 1000)
    assert store.size_of("/images/a.gif") == 1000


def test_store_nav_fallback_is_deterministic():
    store = StaticContentStore()
    first = store.size_of("/images/unknown.gif")
    assert first == store.size_of("/images/unknown.gif")
    assert first >= store.DEFAULT_NAV_BYTES


def test_store_unknown_non_image_raises():
    store = StaticContentStore()
    with pytest.raises(KeyError):
        store.size_of("/files/readme.txt")


def test_store_item_images():
    store = StaticContentStore()
    store.register_item_images("/images/shop", 10,
                               thumb_bytes=100, detail_bytes=900)
    assert len(store) == 20
    assert store.size_of("/images/shop/thumb_3.gif") == 100
    assert store.size_of("/images/shop/image_7.gif") == 900
    assert sum(store.size_of(f"/images/shop/{kind}_{item}.gif")
               for kind in ("thumb", "image")
               for item in range(1, 11)) == 10 * 1000


def test_store_rejects_negative_size():
    with pytest.raises(ValueError):
        StaticContentStore().register("/x", -1)
