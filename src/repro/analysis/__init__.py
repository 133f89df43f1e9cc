"""Analysis and reporting: tables, series shapes, CPU split, figure export."""
