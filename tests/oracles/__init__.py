"""Reference implementations the tests compare the package against."""
