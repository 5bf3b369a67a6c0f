"""The twenty-six auction-site interactions, written once against
AppContext (PHP and servlets run these same functions; the EJB variant
lives in ejb_app.py).

Queries are deliberately short -- inserting a bid, listing 25 items in a
category, showing one item -- which is what makes the *generator*, not
the database, the bottleneck for this benchmark.
"""

from __future__ import annotations

from repro.apps.auction.datagen import BASE_TIME
from repro.middleware.context import AppContext
from repro.web.html import Page
from repro.web.http import HttpResponse

SITE = "Auction Site"
PAGE_SIZE = 25
NAV = ("home", "browse", "sell", "about_me")


def _page(title: str) -> Page:
    page = Page(title, site=SITE)
    page.nav_buttons(NAV)
    return page


def _next_id(ctx: AppContext, counter: str) -> int:
    """Bump and read an id counter (the RUBiS ids-table idiom).  Must be
    called inside an exclusive span covering the ``ids`` table."""
    ctx.update("UPDATE ids SET value = value + 1 WHERE name = ?", (counter,))
    return ctx.query("SELECT value FROM ids WHERE name = ?",
                     (counter,)).scalar()


def _authenticate(ctx: AppContext):
    """Resolve nickname/password to a user id (None if bad)."""
    nickname = ctx.str_param("nickname", "user1")
    password = ctx.str_param("password", "")
    return ctx.query(
        "SELECT id FROM users WHERE nickname = ? AND password = ?",
        (nickname, password)).scalar()


# ------------------------------------------------------------ static pages

def home(ctx: AppContext) -> HttpResponse:
    page = _page("Welcome")
    page.paragraph("Browse auctions, bid on items, or sell your own.")
    page.add_image("/images/auction_banner.gif")
    return ctx.respond(page)


def register(ctx: AppContext) -> HttpResponse:
    page = _page("Register")
    page.form("/register_user", ["firstname", "lastname", "nickname",
                                 "password", "email", "region"])
    return ctx.respond(page)


def browse(ctx: AppContext) -> HttpResponse:
    page = _page("Browse")
    page.link("/browse_categories", "Browse all categories")
    page.link("/browse_regions", "Browse all regions")
    return ctx.respond(page)


def buy_now_auth(ctx: AppContext) -> HttpResponse:
    page = _page("Buy Now: Sign In")
    page.form("/buy_now", ["nickname", "password", "item_id"])
    return ctx.respond(page)


def put_bid_auth(ctx: AppContext) -> HttpResponse:
    page = _page("Bid: Sign In")
    page.form("/put_bid", ["nickname", "password", "item_id"])
    return ctx.respond(page)


def put_comment_auth(ctx: AppContext) -> HttpResponse:
    page = _page("Comment: Sign In")
    page.form("/put_comment", ["nickname", "password", "to_user", "item_id"])
    return ctx.respond(page)


def sell(ctx: AppContext) -> HttpResponse:
    page = _page("Sell Your Item")
    page.link("/select_category_to_sell", "Choose a category")
    return ctx.respond(page)


def sell_item_form(ctx: AppContext) -> HttpResponse:
    page = _page("Sell Item Form")
    page.form("/register_item", ["name", "description", "initial_price",
                                 "reserve_price", "buy_now", "quantity",
                                 "duration", "category"])
    return ctx.respond(page)


# ----------------------------------------------------------- browse/search

def browse_categories(ctx: AppContext) -> HttpResponse:
    result = ctx.query("SELECT id, name FROM categories ORDER BY name")
    page = _page("All Categories")
    for cid, name in result.rows:
        page.link(f"/search_items_in_category?category={cid}", name)
    return ctx.respond(page)


def browse_regions(ctx: AppContext) -> HttpResponse:
    result = ctx.query("SELECT id, name FROM regions ORDER BY name")
    page = _page("All Regions")
    for rid, name in result.rows:
        page.link(f"/browse_categories_in_region?region={rid}", name)
    return ctx.respond(page)


def browse_categories_in_region(ctx: AppContext) -> HttpResponse:
    region = ctx.int_param("region", 1)
    region_name = ctx.query("SELECT name FROM regions WHERE id = ?",
                            (region,)).scalar()
    result = ctx.query("SELECT id, name FROM categories ORDER BY name")
    page = _page(f"Categories in {region_name}")
    for cid, name in result.rows:
        page.link(f"/search_items_in_region?category={cid}&region={region}",
                  name)
    return ctx.respond(page)


def search_items_in_category(ctx: AppContext) -> HttpResponse:
    category = ctx.int_param("category", 1)
    offset = ctx.int_param("page", 0) * PAGE_SIZE
    result = ctx.query(
        "SELECT id, name, max_bid, nb_of_bids, end_date FROM items "
        "WHERE category = ? AND end_date >= ? "
        "ORDER BY end_date LIMIT ? OFFSET ?",
        (category, BASE_TIME, PAGE_SIZE, offset))
    page = _page("Items in Category")
    page.table(["id", "name", "current bid", "bids", "ends"], result.rows)
    for row in result.rows:
        page.link(f"/view_item?item_id={row[0]}", row[1])
        page.add_image(f"/images/auction/thumb_{row[0]}.gif", alt=row[1])
    return ctx.respond(page)


def search_items_in_region(ctx: AppContext) -> HttpResponse:
    """Items in a category whose seller lives in a region -- the join
    the original RUBiS is known for."""
    category = ctx.int_param("category", 1)
    region = ctx.int_param("region", 1)
    offset = ctx.int_param("page", 0) * PAGE_SIZE
    result = ctx.query(
        "SELECT i.id, i.name, i.max_bid, i.nb_of_bids, i.end_date "
        "FROM items i JOIN users u ON u.id = i.seller "
        "WHERE i.category = ? AND u.region = ? AND i.end_date >= ? "
        "LIMIT ? OFFSET ?",
        (category, region, BASE_TIME, PAGE_SIZE, offset))
    page = _page("Items in Region")
    page.table(["id", "name", "current bid", "bids", "ends"], result.rows)
    for row in result.rows:
        page.add_image(f"/images/auction/thumb_{row[0]}.gif", alt=row[1])
    return ctx.respond(page)


# -------------------------------------------------------------- item views

def _load_item(ctx: AppContext, item_id: int):
    """items first, falling back to old_items (the split-table design)."""
    row = ctx.query(
        "SELECT id, name, description, initial_price, quantity, "
        "reserve_price, buy_now, nb_of_bids, max_bid, start_date, "
        "end_date, seller, category FROM items WHERE id = ?",
        (item_id,)).first()
    if row is not None:
        return row, False
    row = ctx.query(
        "SELECT id, name, description, initial_price, quantity, "
        "reserve_price, buy_now, nb_of_bids, max_bid, start_date, "
        "end_date, seller, category FROM old_items WHERE id = ?",
        (item_id,)).first()
    return row, True


def view_item(ctx: AppContext) -> HttpResponse:
    item_id = ctx.int_param("item_id", 1)
    row, ended = _load_item(ctx, item_id)
    if row is None:
        return ctx.error(f"item {item_id} not found", status=404)
    seller = ctx.query(
        "SELECT nickname, rating FROM users WHERE id = ?",
        (row[11],)).first()
    page = _page("View Item")
    page.heading(row[1])
    page.add_image(f"/images/auction/image_{row[0]}.gif", alt=row[1])
    page.paragraph(row[2])
    # The redundant nb_of_bids/max_bid columns avoid a bids-table lookup.
    page.table(["initial", "quantity", "buy now", "bids", "current bid",
                "ends"], [(row[3], row[4], row[6], row[7], row[8], row[10])])
    if seller:
        page.paragraph(f"Seller: {seller[0]} (rating {seller[1]})")
    if ended:
        page.paragraph("This auction has ended.")
    else:
        page.link(f"/put_bid_auth?item_id={item_id}", "Bid on this item")
    return ctx.respond(page)


def view_user_info(ctx: AppContext) -> HttpResponse:
    user_id = ctx.int_param("user_id", 1)
    user = ctx.query(
        "SELECT nickname, firstname, lastname, rating, creation_date, "
        "region FROM users WHERE id = ?", (user_id,)).first()
    if user is None:
        return ctx.error(f"user {user_id} not found", status=404)
    comments = ctx.query(
        "SELECT c.rating, c.date, c.comment, u.nickname "
        "FROM comments c JOIN users u ON u.id = c.from_user "
        "WHERE c.to_user = ? ORDER BY c.date DESC LIMIT 10", (user_id,))
    page = _page("User Information")
    page.paragraph(f"{user[0]} ({user[1]} {user[2]}), rating {user[3]}")
    page.table(["rating", "date", "comment", "from"], comments.rows)
    return ctx.respond(page)


def view_bid_history(ctx: AppContext) -> HttpResponse:
    item_id = ctx.int_param("item_id", 1)
    name = ctx.query("SELECT name FROM items WHERE id = ?",
                     (item_id,)).scalar()
    if name is None:
        name = ctx.query("SELECT name FROM old_items WHERE id = ?",
                         (item_id,)).scalar()
    history = ctx.query(
        "SELECT u.nickname, b.bid, b.qty, b.date "
        "FROM bids b JOIN users u ON u.id = b.user_id "
        "WHERE b.item_id = ? ORDER BY b.date DESC", (item_id,))
    page = _page(f"Bid History: {name}")
    page.table(["bidder", "bid", "qty", "date"], history.rows)
    return ctx.respond(page)


# ------------------------------------------------------------- bid pipeline

def put_bid(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    item_id = ctx.int_param("item_id", 1)
    row, ended = _load_item(ctx, item_id)
    if row is None or ended:
        return ctx.error("item is not for sale", status=404)
    page = _page("Place a Bid")
    page.table(["item", "current bid", "bids"], [(row[1], row[8], row[7])])
    page.form("/store_bid", ["item_id", "bid", "max_bid", "qty"])
    return ctx.respond(page)


def store_bid(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    item_id = ctx.int_param("item_id", 1)
    bid = float(ctx.param("bid", 0.0))
    max_bid = float(ctx.param("max_bid", bid))
    qty = ctx.int_param("qty", 1)
    with ctx.exclusive([("items", item_id), ("bids", item_id),
                        ("ids", "bids")]):
        item = ctx.query(
            "SELECT max_bid, nb_of_bids, end_date FROM items WHERE id = ?",
            (item_id,)).first()
        if item is None:
            return ctx.error("item vanished", status=404)
        current_max, nb_bids, end_date = item
        if bid <= (current_max or 0.0):
            return ctx.error("bid below current maximum", status=409)
        bid_id = _next_id(ctx, "bids")
        ctx.update(
            "INSERT INTO bids (id, user_id, item_id, qty, bid, max_bid, "
            "date) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (bid_id, user_id, item_id, qty, bid, max_bid, BASE_TIME))
        # Maintain the denormalized counters on the item.
        ctx.update(
            "UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? "
            "WHERE id = ?", (bid, item_id))
    page = _page("Bid Placed")
    page.paragraph(f"Your bid of {bid:.2f} on item {item_id} is recorded.")
    return ctx.respond(page)


# ---------------------------------------------------------- buy-now pipeline

def buy_now(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    item_id = ctx.int_param("item_id", 1)
    row, ended = _load_item(ctx, item_id)
    if row is None or ended:
        return ctx.error("item is not for sale", status=404)
    page = _page("Buy It Now")
    page.table(["item", "buy-now price", "quantity"],
               [(row[1], row[6], row[4])])
    page.form("/store_buy_now", ["item_id", "qty"])
    return ctx.respond(page)


def store_buy_now(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    item_id = ctx.int_param("item_id", 1)
    qty = ctx.int_param("qty", 1)
    with ctx.exclusive([("items", item_id), ("buy_now", item_id),
                        ("ids", "buy_now")]):
        item = ctx.query(
            "SELECT quantity, buy_now FROM items WHERE id = ?",
            (item_id,)).first()
        if item is None:
            return ctx.error("item vanished", status=404)
        quantity, price = item
        qty = min(qty, quantity)
        if qty <= 0:
            return ctx.error("sold out", status=409)
        buy_id = _next_id(ctx, "buy_now")
        ctx.update(
            "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) "
            "VALUES (?, ?, ?, ?, ?)",
            (buy_id, user_id, item_id, qty, BASE_TIME))
        remaining = quantity - qty
        if remaining == 0:
            # Close the auction now (RUBiS sets end_date to now).
            ctx.update(
                "UPDATE items SET quantity = 0, end_date = ? WHERE id = ?",
                (BASE_TIME - 1.0, item_id))
        else:
            ctx.update("UPDATE items SET quantity = ? WHERE id = ?",
                       (remaining, item_id))
    page = _page("Purchase Complete")
    page.paragraph(f"You bought {qty} of item {item_id} for "
                   f"{price * qty:.2f}.")
    return ctx.respond(page)


# ---------------------------------------------------------- comment pipeline

def put_comment(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    to_user = ctx.int_param("to_user", 1)
    item_id = ctx.int_param("item_id", 1)
    target = ctx.query("SELECT nickname FROM users WHERE id = ?",
                       (to_user,)).scalar()
    item_name = ctx.query("SELECT name FROM old_items WHERE id = ?",
                          (item_id,)).scalar()
    if item_name is None:
        item_name = ctx.query("SELECT name FROM items WHERE id = ?",
                              (item_id,)).scalar()
    page = _page("Leave a Comment")
    page.paragraph(f"Comment on {target} about {item_name}")
    page.form("/store_comment", ["to_user", "item_id", "rating", "comment"])
    return ctx.respond(page)


def store_comment(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    to_user = ctx.int_param("to_user", 1)
    item_id = ctx.int_param("item_id", 1)
    rating = ctx.int_param("rating", 1)
    text = ctx.str_param("comment", "Great seller, fast shipping!")
    with ctx.exclusive([("users", to_user), ("comments", to_user),
                        ("ids", "comments")]):
        comment_id = _next_id(ctx, "comments")
        ctx.update(
            "INSERT INTO comments (id, from_user, to_user, item_id, rating, "
            "date, comment) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (comment_id, user_id, to_user, item_id, rating, BASE_TIME, text))
        ctx.update("UPDATE users SET rating = rating + ? WHERE id = ?",
                   (rating, to_user))
    page = _page("Comment Recorded")
    page.paragraph(f"Your comment about user {to_user} is posted.")
    return ctx.respond(page)


# ------------------------------------------------------------ sell pipeline

def select_category_to_sell(ctx: AppContext) -> HttpResponse:
    result = ctx.query("SELECT id, name FROM categories ORDER BY name")
    page = _page("Select a Category")
    for cid, name in result.rows:
        page.link(f"/sell_item_form?category={cid}", name)
    return ctx.respond(page)


def register_item(ctx: AppContext) -> HttpResponse:
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    name = ctx.str_param("name", "NEW AUCTION ITEM")
    initial = float(ctx.param("initial_price", 10.0))
    duration = float(ctx.param("duration", 7.0))
    with ctx.exclusive([("items", user_id), ("ids", "items")]):
        item_id = _next_id(ctx, "items")
        ctx.update(
            "INSERT INTO items (id, name, description, initial_price, "
            "quantity, reserve_price, buy_now, nb_of_bids, max_bid, "
            "start_date, end_date, seller, category) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, 0, 0.0, ?, ?, ?, ?)",
            (item_id, name,
             ctx.str_param("description", "Newly listed collectible."),
             initial, ctx.int_param("quantity", 1),
             float(ctx.param("reserve_price", initial + 5.0)),
             float(ctx.param("buy_now", initial * 3.0)),
             BASE_TIME, BASE_TIME + duration * 86_400.0,
             user_id, ctx.int_param("category", 1)))
    page = _page("Item Listed")
    page.paragraph(f"Item {item_id} is now up for auction.")
    return ctx.respond(page)


# ------------------------------------------------------------ registration

def register_user(ctx: AppContext) -> HttpResponse:
    nickname = ctx.str_param("nickname", "")
    if not nickname:
        return ctx.error("nickname required", status=400)
    with ctx.exclusive([("users", nickname), ("ids", "users")],
                       read_tables=["regions"]):
        taken = ctx.query("SELECT id FROM users WHERE nickname = ?",
                          (nickname,)).scalar()
        if taken is not None:
            return ctx.error("nickname already in use", status=409)
        region = ctx.query("SELECT id FROM regions WHERE name = ?",
                           (ctx.str_param("region_name", "REGION01"),)
                           ).scalar() or 1
        user_id = _next_id(ctx, "users")
        ctx.update(
            "INSERT INTO users (id, firstname, lastname, nickname, "
            "password, email, rating, balance, creation_date, region) "
            "VALUES (?, ?, ?, ?, ?, ?, 0, 0.0, ?, ?)",
            (user_id, ctx.str_param("firstname", "New"),
             ctx.str_param("lastname", "Member"), nickname,
             ctx.str_param("password", "secret"),
             ctx.str_param("email", "new@auction.example"),
             BASE_TIME, region))
    page = _page("Registration Complete")
    page.paragraph(f"Welcome aboard, {nickname} (user #{user_id})!")
    return ctx.respond(page)


# ------------------------------------------------------------------ AboutMe

def about_me(ctx: AppContext) -> HttpResponse:
    """The myEbay-style summary: bids, sales, comments, purchases."""
    user_id = _authenticate(ctx)
    if user_id is None:
        return ctx.error("authentication failed", status=401)
    user = ctx.query(
        "SELECT nickname, firstname, lastname, rating, balance FROM users "
        "WHERE id = ?", (user_id,)).first()
    current_bids = ctx.query(
        "SELECT i.id, i.name, b.bid, i.max_bid, i.end_date "
        "FROM bids b JOIN items i ON i.id = b.item_id "
        "WHERE b.user_id = ? ORDER BY i.end_date LIMIT 20", (user_id,))
    selling = ctx.query(
        "SELECT id, name, max_bid, nb_of_bids, end_date FROM items "
        "WHERE seller = ? LIMIT 20", (user_id,))
    comments = ctx.query(
        "SELECT c.rating, c.date, c.comment, u.nickname "
        "FROM comments c JOIN users u ON u.id = c.from_user "
        "WHERE c.to_user = ? ORDER BY c.date DESC LIMIT 10", (user_id,))
    bought = ctx.query(
        "SELECT o.id, o.name, bn.qty, bn.date "
        "FROM buy_now bn JOIN old_items o ON o.id = bn.item_id "
        "WHERE bn.buyer_id = ? LIMIT 10", (user_id,))
    page = _page("About Me")
    page.paragraph(f"{user[0]} ({user[1]} {user[2]}), rating {user[3]}, "
                   f"balance {user[4]:.2f}")
    page.heading("Your current bids", 3)
    page.table(["item", "name", "your bid", "max bid", "ends"],
               current_bids.rows)
    page.heading("Items you are selling", 3)
    page.table(["item", "name", "max bid", "bids", "ends"], selling.rows)
    page.heading("Comments about you", 3)
    page.table(["rating", "date", "comment", "from"], comments.rows)
    page.heading("Your buy-now purchases", 3)
    page.table(["item", "name", "qty", "date"], bought.rows)
    return ctx.respond(page)


# Interaction registry: name -> (handler, read_only?)
INTERACTIONS = {
    "home": (home, True),
    "register": (register, True),
    "register_user": (register_user, False),
    "browse": (browse, True),
    "browse_categories": (browse_categories, True),
    "search_items_in_category": (search_items_in_category, True),
    "browse_regions": (browse_regions, True),
    "browse_categories_in_region": (browse_categories_in_region, True),
    "search_items_in_region": (search_items_in_region, True),
    "view_item": (view_item, True),
    "view_user_info": (view_user_info, True),
    "view_bid_history": (view_bid_history, True),
    "buy_now_auth": (buy_now_auth, True),
    "buy_now": (buy_now, True),
    "store_buy_now": (store_buy_now, False),
    "put_bid_auth": (put_bid_auth, True),
    "put_bid": (put_bid, True),
    "store_bid": (store_bid, False),
    "put_comment_auth": (put_comment_auth, True),
    "put_comment": (put_comment, True),
    "store_comment": (store_comment, False),
    "sell": (sell, True),
    "select_category_to_sell": (select_category_to_sell, True),
    "sell_item_form": (sell_item_form, True),
    "register_item": (register_item, False),
    "about_me": (about_me, True),
}

STATIC_INTERACTIONS = ("home", "register", "browse", "buy_now_auth",
                       "put_bid_auth", "put_comment_auth", "sell",
                       "sell_item_form")
