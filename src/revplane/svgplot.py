"""The library's file formats: tables as CSV through write_csv, plots as
standalone SVG on an SvgCanvas; specs and scan reports write their own
JSON.  Standard library only."""

import csv


def write_csv(path, header, rows):
    """A header row, then the rows, in csv's default dialect: strings and
    ints as they are, any other value as repr(float(x)), which float()
    reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([x if isinstance(x, (str, int)) else repr(float(x)) for x in row]
                                 for row in [header, *rows])


def _fmt(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


class SvgCanvas:
    def __init__(self, width=640, height=640):
        self.width = width
        self.height = height
        self.parts = [
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>'
        ]

    def polyline(self, pts, stroke="#1f77b4", width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="#888888"):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1.0"/>'
        )

    def circle(self, cx, cy, r, stroke="#888888", fill="none"):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="1.0"/>'
        )

    def rect(self, x, y, w, h, fill="#dddddd"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="none"/>'
        )

    def text(self, x, y, s, size=12, anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="#222222">{s}</text>'
        )

    def write(self, path):
        body = "\n".join(self.parts)
        with open(path, "w") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                     f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
                     f"{body}\n</svg>\n")


def fit_transform(xs, ys, width, height):
    """Map data bounding box to the canvas, less a 40-pixel margin,
    preserving aspect ratio; returns a (x, y) -> (px, py) function with y
    flipped for screen space."""
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span_x = max(x_hi - x_lo, 1e-12)
    span_y = max(y_hi - y_lo, 1e-12)
    scale = min((width - 80) / span_x, (height - 80) / span_y)
    cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)

    def tf(x, y):
        return (
            width / 2 + (x - cx) * scale,
            height / 2 - (y - cy) * scale,
        )

    return tf
