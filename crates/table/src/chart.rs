//! Charts: the paper's worked example of auxiliary data objects and the
//! observer mechanism (§2).
//!
//! > "In the chart example, the underlying data object is a table of
//! > values … the user may have set certain parameters in the chart, such
//! > as the way to label the axes … Our solution consists of two parts:
//! > additional data objects and the idea of an observer. The chart view
//! > would be viewing not a table data object but an auxiliary chart data
//! > object … In addition, the chart data object would be an observer of
//! > the table data object. As information in the table changed, the
//! > chart data object would be notified and it, in turn, would notify
//! > the chart view."
//!
//! [`ChartData`] is that auxiliary object: it holds the *stable view
//! state* (title, labels, source range — which would otherwise be lost on
//! save, the exact problem §2 describes), observes its [`TableData`], and
//! relays changes to its own observers. [`PieChartView`] and
//! [`BarChartView`] are two different view classes on the same chart data
//! object.

use std::any::Any;
use std::io;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::Graphic;

use atk_core::{
    ChangeRec, DataId, DataObject, DatastreamReader, DatastreamWriter, DsError, MenuItem,
    ObserverRef, Token, Update, View, ViewBase, ViewId, World,
};

use crate::data::TableData;

/// The auxiliary chart data object.
#[derive(Clone)]
pub struct ChartData {
    /// The observed table.
    pub table: Option<DataId>,
    /// Source range in the table (inclusive).
    pub range: (usize, usize, usize, usize),
    /// Chart title — stable view state that survives save/load.
    pub title: String,
    /// Value-axis label.
    pub value_label: String,
    /// Relayed notifications (instrumentation for tests/benches).
    pub relays: u64,
}

impl ChartData {
    /// An unbound chart.
    pub fn new() -> ChartData {
        ChartData {
            table: None,
            range: (0, 0, 0, 0),
            title: String::new(),
            value_label: String::new(),
            relays: 0,
        }
    }

    /// Points the chart at a table range and registers it as an observer
    /// of the table. `me` is this chart's own data id.
    pub fn bind(
        &mut self,
        world: &mut World,
        me: DataId,
        table: DataId,
        range: (usize, usize, usize, usize),
    ) {
        if let Some(old) = self.table {
            world.remove_observer(old, ObserverRef::Data(me));
        }
        self.table = Some(table);
        self.range = range;
        world.add_observer(table, ObserverRef::Data(me));
    }

    /// Current values of the charted range.
    pub fn values(&self, world: &World) -> Vec<f64> {
        let Some(table) = self.table.and_then(|t| world.data::<TableData>(t)) else {
            return Vec::new();
        };
        let (r0, c0, r1, c1) = self.range;
        table.range_values(r0, c0, r1, c1)
    }
}

impl Default for ChartData {
    fn default() -> Self {
        ChartData::new()
    }
}

impl DataObject for ChartData {
    fn class_name(&self) -> &'static str {
        "chart"
    }

    fn write_body(&self, w: &mut DatastreamWriter, world: &World) -> io::Result<()> {
        w.write_line(&format!("title {}", self.title))?;
        w.write_line(&format!("valuelabel {}", self.value_label))?;
        let (r0, c0, r1, c1) = self.range;
        w.write_line(&format!("range {r0} {c0} {r1} {c1}"))?;
        if let Some(table) = self.table {
            // Written once per document; a shared table reuses its sid.
            let sid = w.write_embedded(world, table)?;
            w.write_line(&format!("source {sid}"))?;
        }
        Ok(())
    }

    fn read_body(
        &mut self,
        r: &mut DatastreamReader<'_>,
        world: &mut World,
    ) -> Result<(), DsError> {
        let bad = |l: &str| DsError::Malformed(format!("chart body: {l}"));
        loop {
            let tok = r.next_token()?.ok_or(DsError::UnexpectedEof)?;
            match tok {
                Token::EndData { .. } => break,
                Token::BeginData { class, sid } => {
                    r.read_object_body(world, &class, sid)?;
                }
                Token::ViewRef { .. } => {}
                Token::Line(line) => {
                    let mut words = line.split_whitespace();
                    match words.next() {
                        Some("title") => {
                            self.title = line.strip_prefix("title ").unwrap_or("").to_string();
                        }
                        Some("valuelabel") => {
                            self.value_label =
                                line.strip_prefix("valuelabel ").unwrap_or("").to_string();
                        }
                        Some("range") => {
                            let v: Vec<usize> = words.filter_map(|x| x.parse().ok()).collect();
                            if v.len() == 4 {
                                self.range = (v[0], v[1], v[2], v[3]);
                            }
                        }
                        Some("source") => {
                            let sid: u32 = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            self.table =
                                Some(r.lookup_sid(sid).ok_or(DsError::DanglingViewRef(sid))?);
                        }
                        _ => return Err(bad(&line)),
                    }
                }
            }
        }
        // Re-register as an observer of the restored table. The reader
        // inserts us after read_body, so the registration happens in
        // `rebind_after_read`, called by whoever placed the chart. We do
        // the cheap part here: nothing.
        Ok(())
    }

    fn embedded(&self) -> Vec<DataId> {
        self.table.into_iter().collect()
    }

    fn observed_changed(
        &mut self,
        world: &mut World,
        me: DataId,
        _source: DataId,
        _change: &ChangeRec,
    ) {
        // The table changed: relay to the chart's own observers (chart
        // views) — the two-hop update path of §2.
        self.relays += 1;
        world.notify(me, ChangeRec::Meta);
    }

    fn fork(&self) -> Option<Box<dyn DataObject>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Re-registers a freshly deserialized chart as an observer of its table.
/// (During `read_body` the chart does not yet know its own id.)
pub fn rebind_after_read(world: &mut World, chart_id: DataId) {
    let table = world.data::<ChartData>(chart_id).and_then(|c| c.table);
    if let Some(table) = table {
        world.add_observer(table, ObserverRef::Data(chart_id));
    }
}

/// Common plumbing for the two chart views.
#[derive(Clone)]
struct ChartBase {
    base: ViewBase,
    data: Option<DataId>,
}

impl ChartBase {
    fn new() -> ChartBase {
        ChartBase {
            base: ViewBase::new(),
            data: None,
        }
    }

    fn bind(&mut self, world: &mut World, data: DataId, me: ViewId) {
        if let Some(old) = self.data {
            world.remove_observer(old, ObserverRef::View(me));
        }
        self.data = Some(data);
        world.add_observer(data, ObserverRef::View(me));
        world.post_damage_full(me);
    }

    fn snapshot(&self, world: &World) -> (String, Vec<f64>) {
        let Some(chart) = self.data.and_then(|d| world.data::<ChartData>(d)) else {
            return (String::new(), Vec::new());
        };
        (chart.title.clone(), chart.values(world))
    }
}

/// A pie chart over a [`ChartData`] — "one table data object and two
/// views, a normal table view and a pie chart view" (§2).
#[derive(Clone)]
pub struct PieChartView {
    inner: ChartBase,
}

impl PieChartView {
    /// An unbound pie chart view.
    pub fn new() -> PieChartView {
        PieChartView {
            inner: ChartBase::new(),
        }
    }
}

impl Default for PieChartView {
    fn default() -> Self {
        PieChartView::new()
    }
}

impl View for PieChartView {
    fn class_name(&self) -> &'static str {
        "piechartv"
    }
    fn id(&self) -> ViewId {
        self.inner.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.inner.base.id = id;
    }
    fn data_object(&self) -> Option<DataId> {
        self.inner.data
    }
    fn set_data_object(&mut self, world: &mut World, data: DataId) -> bool {
        let me = self.inner.base.id;
        self.inner.bind(world, data, me);
        true
    }

    fn desired_size(&mut self, _world: &mut World, budget: i32) -> Size {
        let side = budget.clamp(60, 120);
        Size::new(side, side)
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let size = world.view_bounds(self.inner.base.id).size();
        let (title, values) = self.inner.snapshot(world);
        let total: f64 = values.iter().map(|v| v.abs()).sum();
        let chart_rect = Rect::new(4, 12, size.width - 8, size.height - 16);
        g.set_font(FontDesc::new("andy", Default::default(), 10));
        g.set_foreground(Color::BLACK);
        g.draw_string(Point::new(3, 1), &title);
        if total <= 0.0 {
            g.draw_oval(chart_rect);
            return;
        }
        let mut angle = 0.0;
        for (i, v) in values.iter().enumerate() {
            let sweep = v.abs() / total * 360.0;
            g.set_foreground(Color::chart(i));
            g.fill_wedge(chart_rect, angle, angle + sweep);
            angle += sweep;
        }
        g.set_foreground(Color::BLACK);
        g.draw_oval(chart_rect);
    }

    fn observed_changed(&mut self, world: &mut World, _source: DataId, _change: &ChangeRec) {
        world.post_damage_full(self.inner.base.id);
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![MenuItem::new("Chart", "Recompute", "chart-recompute")]
    }

    fn fork(&self) -> Option<Box<dyn View>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A bar chart over the same [`ChartData`] — the "two different types of
/// views displaying information contained in the one data object" case.
#[derive(Clone)]
pub struct BarChartView {
    inner: ChartBase,
}

impl BarChartView {
    /// An unbound bar chart view.
    pub fn new() -> BarChartView {
        BarChartView {
            inner: ChartBase::new(),
        }
    }
}

impl Default for BarChartView {
    fn default() -> Self {
        BarChartView::new()
    }
}

impl View for BarChartView {
    fn class_name(&self) -> &'static str {
        "barchartv"
    }
    fn id(&self) -> ViewId {
        self.inner.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.inner.base.id = id;
    }
    fn data_object(&self) -> Option<DataId> {
        self.inner.data
    }
    fn set_data_object(&mut self, world: &mut World, data: DataId) -> bool {
        let me = self.inner.base.id;
        self.inner.bind(world, data, me);
        true
    }

    fn desired_size(&mut self, _world: &mut World, budget: i32) -> Size {
        Size::new(budget.clamp(80, 160), 80)
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let size = world.view_bounds(self.inner.base.id).size();
        let (title, values) = self.inner.snapshot(world);
        g.set_font(FontDesc::new("andy", Default::default(), 10));
        g.set_foreground(Color::BLACK);
        g.draw_string(Point::new(3, 1), &title);
        let plot = Rect::new(4, 12, size.width - 8, size.height - 18);
        g.draw_line(
            Point::new(plot.x, plot.bottom()),
            Point::new(plot.right(), plot.bottom()),
        );
        if values.is_empty() {
            return;
        }
        let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
        let bw = (plot.width / values.len() as i32).max(2);
        for (i, v) in values.iter().enumerate() {
            let h = ((v / max).max(0.0) * (plot.height as f64)) as i32;
            let r = Rect::new(plot.x + i as i32 * bw + 1, plot.bottom() - h, bw - 2, h);
            g.set_foreground(Color::chart(i));
            g.fill_rect(r);
            g.set_foreground(Color::BLACK);
            g.draw_rect(r);
        }
    }

    fn observed_changed(&mut self, world: &mut World, _source: DataId, _change: &ChangeRec) {
        world.post_damage_full(self.inner.base.id);
    }

    fn fork(&self) -> Option<Box<dyn View>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CellInput;

    fn setup() -> (World, DataId, DataId, ViewId) {
        let mut world = World::new();
        world
            .catalog
            .register_data("table", || Box::new(TableData::new(1, 1)));
        world
            .catalog
            .register_data("chart", || Box::new(ChartData::new()));
        let table = world.insert_data(Box::new(TableData::new(1, 3)));
        for c in 0..3 {
            let rec = world.data_mut::<TableData>(table).unwrap().set_cell(
                0,
                c,
                CellInput::Raw(format!("{}", (c + 1) * 10)),
            );
            world.notify(table, rec);
        }
        world.flush_notifications();
        let chart = world.insert_data(Box::new(ChartData::new()));
        world.with_data(chart, |d, w| {
            d.as_any_mut()
                .downcast_mut::<ChartData>()
                .unwrap()
                .bind(w, chart, table, (0, 0, 0, 2));
        });
        let pie = world.insert_view(Box::new(PieChartView::new()));
        world.with_view(pie, |v, w| v.set_data_object(w, chart));
        world.set_view_bounds(pie, Rect::new(0, 0, 100, 100));
        let _ = world.take_damage_region();
        (world, table, chart, pie)
    }

    #[test]
    fn chart_reads_table_range() {
        let (world, _, chart, _) = setup();
        let c = world.data::<ChartData>(chart).unwrap();
        assert_eq!(c.values(&world), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn table_change_relays_through_chart_to_view() {
        // The paper's two-hop path: table -> chart data -> chart view.
        let (mut world, table, chart, _pie) = setup();
        let rec =
            world
                .data_mut::<TableData>(table)
                .unwrap()
                .set_cell(0, 0, CellInput::Raw("99".into()));
        world.notify(table, rec);
        world.flush_notifications();
        assert_eq!(world.data::<ChartData>(chart).unwrap().relays, 1);
        // The chart view posted damage as a result.
        assert!(world.has_damage());
    }

    #[test]
    fn chart_title_is_stable_view_state() {
        // Save a table+chart, reload, and the title (which lives in no
        // table cell) survives — the §2 problem solved.
        let (mut world, _table, chart, _) = setup();
        world.data_mut::<ChartData>(chart).unwrap().title = "Expenses".to_string();
        let doc = atk_core::document_to_string(&world, chart);
        assert!(doc.contains("title Expenses"));

        let mut world2 = World::new();
        world2
            .catalog
            .register_data("table", || Box::new(TableData::new(1, 1)));
        world2
            .catalog
            .register_data("chart", || Box::new(ChartData::new()));
        let chart2 = atk_core::read_document(&mut world2, &doc).unwrap();
        rebind_after_read(&mut world2, chart2);
        let c2 = world2.data::<ChartData>(chart2).unwrap();
        assert_eq!(c2.title, "Expenses");
        assert_eq!(c2.values(&world2), vec![10.0, 20.0, 30.0]);
        // And the observer link is live again.
        let table2 = c2.table.unwrap();
        let rec = world2.data_mut::<TableData>(table2).unwrap().set_cell(
            0,
            1,
            CellInput::Raw("7".into()),
        );
        world2.notify(table2, rec);
        world2.flush_notifications();
        assert_eq!(world2.data::<ChartData>(chart2).unwrap().relays, 1);
    }

    #[test]
    fn pie_and_bar_render_ink() {
        let (mut world, _, chart, pie) = setup();
        let bar = world.insert_view(Box::new(BarChartView::new()));
        world.with_view(bar, |v, w| v.set_data_object(w, chart));
        world.set_view_bounds(bar, Rect::new(0, 0, 120, 80));

        use atk_wm::WindowSystem;
        let mut ws = atk_wm::x11sim::X11Sim::new();
        for (view, wpx, hpx) in [(pie, 100, 100), (bar, 120, 80)] {
            let mut win = ws.open_window("t", Size::new(wpx, hpx));
            world.with_view(view, |v, w| v.draw(w, win.graphic(), Update::Full));
            let snap = win.snapshot();
            let colored = (0..wpx)
                .flat_map(|x| (0..hpx).map(move |y| (x, y)))
                .filter(|&(x, y)| {
                    let c = snap.get(x, y);
                    c != Color::WHITE && c != Color::BLACK
                })
                .count();
            assert!(
                colored > 50,
                "chart should have colored area, got {colored}"
            );
        }
    }
}
