"""CS fixture: one module tripping every simulation-hygiene rule."""
